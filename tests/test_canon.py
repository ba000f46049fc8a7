import gc
import hashlib
import math
import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szlab.canon import canonical_code, canonical_form
from szlab.enumeration import EnumerationSpec, generate
from szlab.errors import SizeLimitError
from szlab.extremal import extremal_family
from szlab.formats import parse_graph6
from szlab.graphs import Graph, complete_bipartite, star_graph

from .conftest import path_graph
from .oracles import (
    all_labeled_trees,
    automorphism_count_brute,
    brute_isomorphic,
    labeled_orbits,
    mask_to_graph,
    pair_positions,
    permutation_tables,
)
from .test_kernel import graphs_up_to_16


def test_relabelings_share_code():
    a = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    b = Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert canonical_code(a) == canonical_code(b)


def test_different_graphs_different_codes():
    assert canonical_code(path_graph(4)) != canonical_code(star_graph(3))


def test_canonical_form_is_fixpoint(enumerated):
    # Each g is a CanonicalForm.  The search maps its plain copy onto it,
    # which is why canonical_form may return a CanonicalForm as it is.
    for graphs in enumerated.values():
        for g in graphs:
            plain = Graph(g.n, g.edges)
            assert canonical_form(plain) == plain
            assert canonical_code(plain) == canonical_code(g)
            assert canonical_form(g) is g


def test_code_parses_back_to_member_of_class(c4_pendant):
    code = canonical_code(c4_pendant)
    assert brute_isomorphic(parse_graph6(code.decode("ascii")), c4_pendant)


def test_trees_on_four_vertices_give_two_codes():
    # All 4!-labelings of the two tree shapes collapse to exactly 2 codes.
    codes = set()
    for edges in all_labeled_trees(4):
        for perm in permutations(range(4)):
            codes.add(canonical_code(Graph(4, [(perm[u], perm[v]) for u, v in edges])))
    assert len(codes) == 2


def test_canonical_labeling_leaves_no_cycle_for_the_collector():
    # Reference counting frees a search's state as soon as it returns, so a
    # stream of graphs holds nothing per graph until the cyclic collector runs.
    gc.collect()
    gc.disable()
    try:
        for g in (star_graph(5), complete_bipartite(3, 3), path_graph(7)):
            canonical_form(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_size_limit():
    with pytest.raises(SizeLimitError):
        canonical_code(Graph(17, [(0, 1)]))


@pytest.mark.parametrize("n", range(1, 7))
def test_code_agreement_equals_brute_isomorphism_exhaustive(n):
    """Codes classify exactly like permutation brute force, all graphs, n <= 6.

    Ground truth consists of the labeled-mask orbits under all vertex
    permutations; every orbit must be code-constant and no two orbits may
    share a code.
    """
    pairs = pair_positions(n)
    orbits = labeled_orbits(n)
    total = 1 << (n * (n - 1) // 2)
    assert sum(len(o) for o in orbits) == total
    codes_seen = set()
    for orbit in orbits:
        codes = {canonical_code(mask_to_graph(n, mask, pairs)) for mask in orbit}
        assert len(codes) == 1, "isomorphic labelings produced different codes"
        code = codes.pop()
        assert code not in codes_seen, "non-isomorphic graphs shared a code"
        codes_seen.add(code)


def test_code_equality_matches_brute_on_pairs(enumerated):
    graphs = enumerated[6]
    for i, g in enumerate(graphs):
        for h in graphs[i:]:
            assert (canonical_code(g) == canonical_code(h)) == brute_isomorphic(g, h)


def test_code_invariant_under_random_relabeling_n8(enumerated):
    import random

    rng = random.Random(5150)
    for g in enumerated[8][::7]:  # a spread of the 182 classes
        code = canonical_code(g)
        for _ in range(3):
            perm = list(range(8))
            rng.shuffle(perm)
            relabeled = Graph(8, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_code(relabeled) == code


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_code_invariant_under_relabeling_property(data):
    g = data.draw(graphs_up_to_16())
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_code(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])) == canonical_code(g)


def _group_generated(generators: list[list[int]], n: int) -> set[tuple[int, ...]]:
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        element = todo.pop()
        for gen in generators:
            product = tuple(gen[x] for x in element)
            if product not in group:
                group.add(product)
                todo.append(product)
    return group


def test_group_order_matches_brute_force():
    """|Aut| equals the permutation count on every bipartite class with
    n <= 7, relabelled three ways; the generators are automorphisms of the
    form and generate a group of that order."""
    rng = random.Random(1998)
    classes = 0
    for n in range(1, 8):
        tables = permutation_tables(n)
        for g in generate(EnumerationSpec(n, min_edges=0, connected=False)):
            classes += 1
            order = automorphism_count_brute(g, tables)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                form = canonical_form(Graph(n, [(perm[u], perm[v]) for u, v in g.edges]))
                assert form.group_order == order
                edges = set(form.edges)
                for gen in form.generators:
                    assert {tuple(sorted((gen[u], gen[v]))) for u, v in form.edges} == edges
                assert len(_group_generated(form.generators, n)) == order
    assert classes == 149


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_group_order_invariant_under_relabeling_property(data):
    g = data.draw(graphs_up_to_16())
    perm = data.draw(st.permutations(range(g.n)))
    relabeled = canonical_form(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    assert relabeled.group_order == canonical_form(g).group_order


def test_codes_distinct_across_n8_classes(enumerated):
    codes = {canonical_code(g) for g in enumerated[8]}
    assert len(codes) == len(enumerated[8]) == 182


def test_golden_codes():
    """Pins the canonical form itself, not only the classification.

    The digest covers every bipartite class for n = 1..7, seeded
    relabelings of those classes and the extremal family for n = 4..11, and
    was recorded with the exhaustive (unpruned) search.  Classes are hashed
    by (n, m, canonical code), the order generation used when it was recorded.
    """
    digest = hashlib.sha256()
    classes = sorted(
        (g for n in range(1, 8) for g in generate(EnumerationSpec(n, min_edges=0, connected=False))),
        key=lambda g: (g.n, g.m, canonical_code(g)),
    )
    assert len(classes) == 149
    for g in classes:
        digest.update(canonical_code(g))
    rng = random.Random(2012)
    for g in classes:
        perm = list(range(g.n))
        rng.shuffle(perm)
        digest.update(canonical_code(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])))
    for n in range(4, 12):
        for member in extremal_family(n):
            digest.update(canonical_code(member.graph))
    assert digest.hexdigest() == "21665eaa28f599fdca3c6c1166ad3914d3d08693067d3c6c72c313e585aa8af8"


def test_golden_codes_and_group_orders_up_to_n9():
    """Pins the canonical code and |Aut| of every bipartite class with n <= 9.

    Classes are hashed in (n, canonical code) order, one line of code and
    |Aut| each, so the digest does not depend on generation order.  Recorded
    with refinement that re-ranked until no color changed and with
    individualization by sorting, so it checks the early stops and the shift.
    """
    digest = hashlib.sha256()
    classes = sorted(
        (g for n in range(1, 10) for g in generate(EnumerationSpec(n, min_edges=0, connected=False))),
        key=lambda g: (g.n, canonical_code(g)),
    )
    assert len(classes) == 1571
    for g in classes:
        digest.update(b"%s %d\n" % (canonical_code(g), g.group_order))
    assert digest.hexdigest() == "8eced133099d8a64d95aa8e9287d59230bcb6acbd0263ae441bcd369ff494e3f"


def _c4_with_pendants(spread: bool) -> Graph:
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    edges += [(i % 4 if spread else 0, 4 + i) for i in range(12)]
    return Graph(16, edges)


_K44 = complete_bipartite(4, 4)
HARD_CASES = {
    "edgeless16": Graph(16, []),
    "star15": star_graph(15),
    "k88": complete_bipartite(8, 8),
    "c4_12_pendants": _c4_with_pendants(spread=False),
    "c4_12_pendants_spread": _c4_with_pendants(spread=True),
    "two_k44": Graph(16, list(_K44.edges) + [(u + 8, v + 8) for u, v in _K44.edges]),
}


@pytest.mark.parametrize("name", sorted(HARD_CASES))
def test_hard_cases_within_budget(name):
    """High-symmetry graphs at the size limit: an exhaustive search visits up
    to 15! leaves here; automorphism pruning must keep each under 2 s."""
    g = HARD_CASES[name]
    perm = list(range(g.n))
    random.Random(16).shuffle(perm)
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    codes = []
    for h in (g, relabeled):
        start = time.perf_counter()
        codes.append(canonical_code(h))
        assert time.perf_counter() - start < 2.0
    assert codes[0] == codes[1]
    h = parse_graph6(codes[0].decode("ascii"))
    assert sorted(map(h.degree, h.vertices())) == sorted(map(g.degree, g.vertices()))


def test_group_order_at_size_limit():
    """|Aut| of the hard cases, from their structure: symmetric groups on
    interchangeable vertices times the symmetries of the core."""
    f = math.factorial
    expected = {
        "edgeless16": f(16),
        "star15": f(15),
        "k88": 2 * f(8) ** 2,
        "c4_12_pendants": 2 * f(12),  # the reflection of C4 through the hub
        "c4_12_pendants_spread": 8 * f(3) ** 4,  # the dihedral group of C4
        "two_k44": 2 * (2 * f(4) ** 2) ** 2,
    }
    assert {name: canonical_form(g).group_order for name, g in HARD_CASES.items()} == expected
