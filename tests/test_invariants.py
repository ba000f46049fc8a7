import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szlab.canon import canonical_code
from szlab.cli import main
from szlab.errors import DisconnectedGraphError
from szlab.formats import to_graph6
from szlab.graphs import Graph, all_pairs_distances, connected_and_bipartite, star_graph
from szlab.proofs import surplus_map
from szlab.invariants import compute_invariants, edge_partitions, gap, wiener

from .oracles import (
    edge_partition_brute,
    gap_brute,
    pair_contribution_total_brute,
    mu_brute,
    random_tree,
    revised_szeged_times4_brute,
    szeged_brute,
    wiener_brute,
)
from .test_kernel import connected_graphs, separation_counts


def test_wiener_frozen_values(c4, k23, p3):
    # Frozen after confirming with the pair-loop oracle.
    assert wiener_brute(c4) == 8
    assert wiener(all_pairs_distances(c4)) == 8
    assert wiener_brute(k23) == 14
    assert wiener(all_pairs_distances(k23)) == 14
    assert wiener(all_pairs_distances(p3)) == 4


def test_wiener_rejects_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        wiener(all_pairs_distances(g))


def test_edge_partition_c4(c4):
    for e, p in zip(c4.edges, edge_partitions(c4, all_pairs_distances(c4))):
        assert (p.u, p.v) == e
        assert (p.n_u, p.n_v, p.n_0) == (2, 2, 0)


def test_edge_partition_c5(c5):
    for e, p in zip(c5.edges, edge_partitions(c5, all_pairs_distances(c5))):
        assert (p.n_u, p.n_v, p.n_0) == (2, 2, 1)
        assert edge_partition_brute(c5, e) == (2, 2, 1)


def test_edge_partition_k23(k23):
    for e, p in zip(k23.edges, edge_partitions(k23, all_pairs_distances(k23))):
        assert sorted((p.n_u, p.n_v)) == [2, 3] and p.n_0 == 0
        brute = edge_partition_brute(k23, e)
        assert (p.n_u, p.n_v, p.n_0) == brute


def test_szeged_frozen_values(c4, k23):
    assert szeged_brute(c4) == 16
    assert compute_invariants(c4).szeged == 16
    assert szeged_brute(k23) == 36
    assert compute_invariants(k23).szeged == 36
    # stars are trees, so Sz equals W
    assert compute_invariants(star_graph(4)).szeged == 16 == wiener(all_pairs_distances(star_graph(4)))


def test_revised_szeged_values(c4, c5, p3):
    assert compute_invariants(c4).revised_szeged == Fraction(16)
    assert revised_szeged_times4_brute(c5) == 125
    assert compute_invariants(c5).revised_szeged == Fraction(125, 4)
    assert compute_invariants(p3).revised_szeged == Fraction(4)


def _mu(smap, x, y, e) -> int:
    """Whether edge e separates x and y, read off the surplus map's separating mask."""
    return smap.separating(x, y) >> smap.edges.index(e) & 1


def test_mu_examples(c4):
    t = surplus_map(c4)
    # antipodal pair separated by an incident edge
    assert _mu(t, 0, 2, (0, 1)) == 1
    assert mu_brute(c4, 0, 2, (0, 1)) == 1
    # adjacent pair not separated by the next edge around the cycle
    assert _mu(t, 0, 1, (1, 2)) == 0
    # an edge always separates its own endpoints
    for u, v in c4.edges:
        assert _mu(t, u, v, (u, v)) == 1


def test_mu_table_c4(c4):
    t = surplus_map(c4)
    sums = dict(zip(combinations(range(4), 2), separation_counts(t)))
    assert len(sums) == len(t.surpluses) == 6
    assert sums[(0, 2)] == 4 and sums[(1, 3)] == 4
    assert sum(sums.values()) == 16 == compute_invariants(c4).szeged
    assert _mu(t, 0, 2, (0, 1)) == 1
    assert _mu(t, 0, 1, (1, 2)) == 0


def test_mu_table_p3(p3):
    counts = separation_counts(surplus_map(p3))
    assert sorted(counts) == [1, 1, 2]
    assert sum(counts) == 4 == compute_invariants(p3).szeged


def test_gap_frozen_values(c4, k23, c4_pendant, p3):
    assert gap_brute(c4) == 8
    assert gap(c4) == 8 == 4 * 4 - 8
    assert gap_brute(k23) == 22
    assert gap(k23) == 22
    assert gap_brute(c4_pendant) == 12
    assert gap(c4_pendant) == 12
    assert gap(p3) == 0
    assert gap(star_graph(5)) == 0


def test_pair_contribution_identity_per_edge(enumerated):
    # per-edge form: the pair separations across one edge count n_u * n_v
    for g in enumerated[6]:
        t = surplus_map(g)
        for e, part in zip(g.edges, edge_partitions(g, t.dist)):
            sep = sum(_mu(t, x, y, e) for x, y in combinations(range(g.n), 2))
            assert sep == part.n_u * part.n_v


def test_pair_contribution_identity_exhaustive(enumerated):
    for graphs in enumerated.values():
        for g in graphs:
            total = sum(separation_counts(surplus_map(g)))
            assert total == pair_contribution_total_brute(g) == compute_invariants(g).szeged


def test_tree_identities_up_to_nine_vertices():
    # all free trees on <= 9 vertices via rooted trees deduplicated by code
    from szlab.extremal import rooted_trees

    for n in range(1, 10):
        seen = set()
        trees = []
        for parent in rooted_trees(n):
            g = Graph(n, [(p, i) for i, p in enumerate(parent) if p is not None])
            code = canonical_code(g)
            if code not in seen:
                seen.add(code)
                trees.append(g)
        # known free-tree counts
        assert len(trees) == [1, 1, 1, 2, 3, 6, 11, 23, 47][n - 1]
        for g in trees:
            w = wiener(all_pairs_distances(g))
            report = compute_invariants(g)
            assert report.szeged == w
            assert report.revised_szeged == Fraction(w)


def test_bipartite_identity(enumerated):
    for graphs in enumerated.values():
        for g in graphs:
            assert connected_and_bipartite(g)[1]
            for p in edge_partitions(g, all_pairs_distances(g)):
                assert p.n_0 == 0
            report = compute_invariants(g)
            assert report.revised_szeged_times4 == 4 * report.szeged


def test_partition_identity_including_nonbipartite(c5):
    for g in [c5, Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])]:
        for p in edge_partitions(g, all_pairs_distances(g)):
            assert p.n_u + p.n_v + p.n_0 == g.n
            assert p.n_u >= 1 and p.n_v >= 1


def test_random_trees_match_oracle():
    rng = random.Random(20240811)
    for _ in range(25):
        n = rng.randint(2, 24)
        g = random_tree(n, rng)
        w = wiener(all_pairs_distances(g))
        assert w == wiener_brute(g)
        assert compute_invariants(g).szeged == w


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_indices_invariant_under_relabeling(data):
    g = data.draw(connected_graphs(max_n=16))
    perm = data.draw(st.permutations(range(g.n)))
    before = compute_invariants(g)
    after = compute_invariants(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    fields = ("wiener", "szeged", "revised_szeged_times4", "gap")
    assert [getattr(after, f) for f in fields] == [getattr(before, f) for f in fields]


def _compute(capsys, g, fmt: str) -> str:
    assert main(["compute", "--graph6", to_graph6(g), "--format", fmt]) == 0
    return capsys.readouterr().out


def test_invariant_report_json_and_csv(c4_pendant, capsys):
    text = _compute(capsys, c4_pendant, "json")
    payload = json.loads(text)
    assert payload["schema"] == 1
    assert list(payload)[:7] == ["schema", "n", "m", "wiener", "szeged", "revised_szeged_times4", "gap"]
    assert payload["wiener"] == 16
    assert payload["szeged"] == 28
    assert payload["gap"] == 12
    assert len(payload["per_edge"]) == 5
    lines = _compute(capsys, c4_pendant, "csv").splitlines()
    assert lines[0] == "u,v,n_u,n_v,n_0"
    assert len(lines) == 6
    # identical input gives byte-identical output
    assert text == _compute(capsys, c4_pendant, "json")
