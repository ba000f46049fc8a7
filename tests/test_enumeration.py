import json
import os
import random
import time
from fractions import Fraction
from math import factorial

import pytest

from szlab.canon import canonical_code
from szlab import enumeration
from szlab.enumeration import (
    EnumerationSpec,
    examine,
    examine_lines,
    generate,
    verify_conjecture,
)
from szlab.errors import SizeLimitError
from szlab.extremal import rooted_trees
from szlab.graphs import Graph, bfs_forest, complete_bipartite, connected_and_bipartite, cycle_graph

from .oracles import (
    brute_force_classes,
    brute_isomorphic,
    graph_to_mask,
    labeled_bipartite_counts,
    pair_positions,
    permutation_tables,
    random_tree,
)

# Isomorphism classes of bipartite graphs on n = 1..11 vertices: all, connected.
A033995 = [1, 2, 3, 7, 13, 35, 88, 303, 1119, 5479, 32303]
A005142 = [1, 1, 1, 3, 5, 17, 44, 182, 730, 4032, 25598]


def test_spec_validation():
    with pytest.raises(ValueError):
        EnumerationSpec(n=0)
    with pytest.raises(ValueError):
        EnumerationSpec(n=4, min_edges=-1)
    assert EnumerationSpec(n=5).effective_min_edges == 5
    assert EnumerationSpec(n=5, min_edges=0).effective_min_edges == 0


def test_generate_known_small_cases():
    got = list(generate(EnumerationSpec(n=4)))
    assert len(got) == 1
    assert brute_isomorphic(got[0], cycle_graph(4))

    got = list(generate(EnumerationSpec(n=5)))
    assert len(got) == 2
    assert any(brute_isomorphic(g, complete_bipartite(2, 3)) for g in got)

    assert list(generate(EnumerationSpec(n=4, min_edges=5))) == []


def test_generate_outputs_are_valid_and_distinct(enumerated):
    for n, graphs in enumerated.items():
        codes = set()
        for g in graphs:
            assert g.n == n
            assert connected_and_bipartite(g, bfs_forest(g)) == (True, True)
            codes.add(canonical_code(g))
        assert len(codes) == len(graphs)


def test_generate_deterministic():
    a = [g.edges for g in generate(EnumerationSpec(n=6))]
    b = [g.edges for g in generate(EnumerationSpec(n=6))]
    assert a == b


def test_generate_connected_bipartite_counts(enumerated):
    # matches the published counts for connected bipartite graphs
    assert [len(enumerated[n]) for n in range(1, 9)] == [1, 1, 1, 3, 5, 17, 44, 182]


def test_generate_matches_brute_force_classes():
    for n in range(2, 7):
        mine = list(generate(EnumerationSpec(n=n, min_edges=0)))
        brute = brute_force_classes(n, 0)
        assert len(mine) == len(brute)


def test_generate_over_limit():
    with pytest.raises(SizeLimitError):
        next(generate(EnumerationSpec(n=13)))


def test_labeled_counts_oracle():
    every, connected = labeled_bipartite_counts(8)
    assert every[1:] == [1, 2, 7, 41, 376, 5177, 103237, 2922446]
    assert connected[1:] == [1, 1, 3, 19, 195, 3031, 67263, 2086099]


_SLOW = pytest.mark.skipif(not os.environ.get("SZLAB_SLOW_TESTS"), reason="set SZLAB_SLOW_TESTS=1 to run")


@pytest.mark.parametrize("n", [*range(1, 11), pytest.param(11, marks=_SLOW)])
def test_classes_weighted_by_automorphisms_count_labeled_graphs(n):
    """Each class stands for n!/|Aut| labeled graphs, so a missed or doubled
    class, or a wrong |Aut|, breaks the sum; nothing deduplicates the
    canonical construction path, so this guards its orbit checks."""
    every, connected = labeled_bipartite_counts(n)
    classes = list(generate(EnumerationSpec(n, min_edges=0, connected=False)))
    joined = [g for g in classes if connected_and_bipartite(g, bfs_forest(g))[0]]
    assert (len(classes), len(joined)) == (A033995[n - 1], A005142[n - 1])
    assert sum(Fraction(factorial(n), g.group_order) for g in classes) == every[n]
    assert sum(Fraction(factorial(n), g.group_order) for g in joined) == connected[n]


@pytest.mark.parametrize("connected", [False, True])
def test_edge_key_is_only_a_shortcut(monkeypatch, connected):
    """With a constant key every child is canonized and m(H) is the greatest
    canonical edge of all; the classes must not change.  A wrong choice of
    m(H) or a wrong orbit check fails here, where the real key could hide it."""
    specs = [EnumerationSpec(n, min_edges=0, connected=connected) for n in range(1, 9)]
    keyed = [sorted(canonical_code(g) for g in generate(spec)) for spec in specs]
    monkeypatch.setattr(enumeration, "_edge_key", lambda du, dv: 0)
    for spec, codes in zip(specs, keyed):
        constant = [canonical_code(g) for g in generate(spec)]
        assert len(set(constant)) == len(constant)
        assert sorted(constant) == codes


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_roots_are_the_first_indices_of_the_automorphism_orbits(n):
    """The roots generation keeps are one per orbit of the bipartite-safe
    additions under all of Aut(g), found by brute force, and each root is the
    first index of its orbit."""
    positions = pair_positions(n)
    slot = {p: k for k, p in enumerate(positions)}
    tables = permutation_tables(n)
    for g in generate(EnumerationSpec(n, min_edges=0, connected=False)):
        mask = graph_to_mask(g, positions)
        edges = [k for k in range(len(positions)) if mask >> k & 1]
        auts = [t for t in tables if all(mask >> t[k] & 1 for k in edges)]
        pairs = enumeration._bipartite_safe_additions(g, *bfs_forest(g))
        index = {p: i for i, p in enumerate(pairs)}
        orbits = [{index[positions[t[slot[p]]]] for t in auts} for p in pairs]
        roots = enumeration._orbit_roots(pairs, g.generators)
        assert roots == [min(orbit) for orbit in orbits]


def test_examine_lines_stream():
    records = list(examine_lines(["Cr", "D?{", "Bw"], 1, False))
    assert len(records) == 3
    assert all("error" not in r for r in records)

    records = list(examine_lines(["Cr", "C", "Cr"], 1, False))
    # Only the error record carries its line number.
    assert ["lineno" in r for r in records] == [False, True, False] and records[1]["lineno"] == 2
    assert set(records[1]) == {"lineno", "error"} and records[1]["error"]
    assert records[0]["n"] == records[2]["n"] == 4

    assert list(examine_lines([], 1, False)) == []
    assert list(examine_lines(["", "  "], 1, False)) == []


def test_verify_conjecture_n4(enumerated):
    reports = verify_conjecture([g for g in enumerated[4] if g.m >= 4])
    assert len(reports) == 1
    r = reports[0]
    assert r.n == 4 and r.graphs_checked == 1 and r.rejected == 0
    assert r.min_gap == 8 and r.bound == 8
    assert not r.violations
    assert len(r.equality_graphs) == 1
    assert r.extremal_match is True


def test_verify_conjecture_n5(enumerated):
    r = verify_conjecture([g for g in enumerated[5] if g.m >= 5])[0]
    assert r.min_gap == 12
    assert len(r.equality_graphs) == 1  # complete bipartite 2x3 has gap 22
    assert r.extremal_match is True


def test_verify_conjecture_rejects_bad_inputs():
    offenders = [
        Graph(4, [(0, 1), (2, 3)]),  # disconnected
        cycle_graph(5),  # odd cycle
        Graph(4, [(0, 1), (1, 2), (2, 3)]),  # tree: m < n
    ]
    reports = verify_conjecture(offenders + [cycle_graph(4)])
    by_n = {r.n: r for r in reports}
    assert by_n[4].rejected == 2 and by_n[4].graphs_checked == 1
    assert by_n[5].rejected == 1 and by_n[5].graphs_checked == 0
    assert by_n[5].min_gap is None and by_n[5].extremal_match is None


@pytest.mark.parametrize("rows", [False, True])
def test_examine_two_colors_each_checked_graph_once(monkeypatch, rows):
    # One gate call per graph decides connected and bipartite.  Disconnected
    # graphs never get invariants, and neither do odd cycles and trees
    # (m < n) unless CSV rows are wanted.
    stream = [
        Graph(4, [(0, 1), (2, 3)]),  # disconnected
        Graph(4, [(0, 1), (1, 2), (2, 3)]),  # tree
        cycle_graph(5),  # odd cycle
        cycle_graph(4),
        complete_bipartite(2, 3),
    ]
    gates, computed = [], []
    gate, compute = enumeration.connected_and_bipartite, enumeration.compute_invariants
    monkeypatch.setattr(enumeration, "connected_and_bipartite", lambda g, forest: gates.append(g) or gate(g, forest))
    monkeypatch.setattr(enumeration, "compute_invariants", lambda g: computed.append(g) or compute(g))
    records = list(examine(stream, 1, rows))
    assert [r["ok"] for r in records] == [False, False, False, True, True]
    assert gates == stream
    assert computed == (stream[1:] if rows else stream[3:])


def test_verify_rejects_non_bipartite_graphs_without_invariants(monkeypatch):
    # Connected graphs with odd cycles: a random tree plus n // 2 random edges.
    rng = random.Random(2012)
    graphs = []
    while len(graphs) < 50:
        n = rng.randint(6, 30)
        edges = set(random_tree(n, rng).edges)
        while len(edges) < 3 * n // 2 - 1:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        g = Graph(n, edges)
        if not connected_and_bipartite(g, bfs_forest(g))[1]:
            graphs.append(g)
    computed = []
    compute = enumeration.compute_invariants
    monkeypatch.setattr(enumeration, "compute_invariants", lambda g: computed.append(g) or compute(g))
    solo = verify_conjecture(graphs)
    assert computed == []
    assert sum(r.rejected for r in solo) == 50 and all(r.graphs_checked == 0 for r in solo)
    multi = enumeration.fold_records(examine(graphs, 2))
    assert [r.to_json_dict() for r in multi] == [r.to_json_dict() for r in solo]


def test_verify_conjecture_deduplicates_equality_entries():
    a = cycle_graph(4)
    b = Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])  # relabeled 4-cycle
    r = verify_conjecture([a, b])[0]
    assert r.graphs_checked == 2
    assert len(r.equality_graphs) == 1
    assert r.extremal_match is True


def _family_graphs(n: int) -> list[Graph]:
    """The extremal family on n vertices as plain graphs, one per rooted tree on
    n - 3 vertices hung from vertex 0 of a 4-cycle, built without canon."""
    return [
        Graph(n, [(0, 1), (1, 2), (2, 3), (0, 3)]
              + [(0 if p == 0 else p + 3, c + 3) for c, p in enumerate(parent) if p is not None])
        for parent in rooted_trees(n - 3)
    ]


@pytest.mark.parametrize("n", range(4, 14))
def test_extremal_match_on_the_family_and_without_one_member(n):
    members = _family_graphs(n)
    assert verify_conjecture(members)[0].extremal_match is True
    if len(members) > 1:
        assert verify_conjecture(members[1:])[0].extremal_match is False


def test_extremal_match_at_n16_without_building_the_family():
    members = _family_graphs(16)
    start = time.perf_counter()
    report = verify_conjecture(members[-1:])[0]
    assert time.perf_counter() - start < 0.1
    assert report.extremal_match is False and len(report.equality_graphs) == 1
    report = enumeration.fold_records(examine(members[1:], 2))[0]
    assert len(report.equality_graphs) == 12485 and report.violations == ()
    assert report.extremal_match is False


def test_extremal_match_false_on_an_equality_graph_of_another_shape():
    # A forged record of an equality graph that is not of extremal form.
    records = list(examine([cycle_graph(4)], 1))
    assert verify_conjecture([cycle_graph(4)])[0].extremal_match is True
    records[0]["extremal"] = False
    assert enumeration.fold_records(records)[0].extremal_match is False


def test_examine_asks_whether_an_equality_graph_is_of_extremal_form(monkeypatch):
    # C4 is of extremal form; were it not, it would be a stray equality graph.
    assert enumeration._examine(cycle_graph(4), False)["extremal"] is True
    monkeypatch.setattr(enumeration, "is_extremal_form", lambda g, forest: False)
    assert enumeration._examine(cycle_graph(4), False)["extremal"] is False
    assert verify_conjecture([cycle_graph(4)])[0].extremal_match is False


def test_verify_conjecture_worker_counts_agree(enumerated):
    graphs = [g for g in enumerated[6] if g.m >= 6]
    solo = [r.to_json_dict() for r in enumeration.fold_records(examine(graphs, 1))]
    multi = [r.to_json_dict() for r in enumeration.fold_records(examine(graphs, 3))]
    assert solo == multi


def test_verify_conjecture_examines_graphs_directly(enumerated, monkeypatch):
    # With one worker no graph goes through graph6; only the equality graphs
    # are encoded, to name them in the report.
    import szlab.enumeration as enumeration

    graphs = [g for g in enumerated[6] if g.m >= 6]
    parsed, encoded = [], []
    parse, encode = enumeration.parse_graph6, enumeration.to_graph6
    monkeypatch.setattr(enumeration, "parse_graph6", lambda t: parsed.append(t) or parse(t))
    monkeypatch.setattr(enumeration, "to_graph6", lambda g: encoded.append(g) or encode(g))
    r = verify_conjecture(graphs)[0]
    assert parsed == []
    assert len(encoded) == len(r.equality_graphs) == 2


def test_examine_sends_graphs_to_the_pool_without_graph6(enumerated, monkeypatch):
    # Forked workers inherit the patch, so a parse anywhere would fail a record.
    def refuse(text):
        raise AssertionError("examine parsed graph6")

    graphs = [g for g in enumerated[6] if g.m >= 6]
    solo = list(examine(graphs, 1, rows=True))
    monkeypatch.setattr(enumeration, "parse_graph6", refuse)
    assert list(examine(graphs, workers=2, rows=True)) == solo


def test_report_json_payload_is_stable(enumerated):
    graphs = [g for g in enumerated[5] if g.m >= 5]
    r1 = verify_conjecture(graphs)[0]
    r2 = verify_conjecture(graphs)[0]
    # The CLI writes exactly this dump, so identical input gives identical bytes.
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())
    payload = r1.to_json_dict()
    assert payload["schema"] == 1
    assert set(payload) == {
        "schema",
        "n",
        "graphs_checked",
        "rejected",
        "min_gap",
        "bound",
        "violations",
        "equality_graphs",
        "extremal_match",
    }
    entry = payload["equality_graphs"][0]
    assert set(entry) == {"canonical_code", "graph6"}
