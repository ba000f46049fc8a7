"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Everything is exact integer arithmetic; there are no tolerances
to tune.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from szlab.canon import canonical_code
from szlab.enumeration import EnumerationSpec, generate, verify_conjecture
from szlab.extremal import extremal_family, rooted_trees
from szlab.graphs import (
    all_pairs_distances,
    complete_bipartite,
    cycle_graph,
    shortest_cycle,
    star_graph,
)
from szlab.invariants import compute_invariants, edge_partitions, gap, wiener
from szlab.proofs import gap_decomposition, surplus_map

from .conftest import path_graph
from .oracles import (
    brute_force_classes,
    floyd_warshall,
    gap_brute,
    mu_brute,
    pair_contribution_total_brute,
    random_tree,
    revised_szeged_times4_brute,
    szeged_brute,
    wiener_brute,
)
from .test_kernel import separation_counts


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[ACCEPTANCE] criterion {number}: PASS - {description} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def reports(enumerated):
    return {
        n: verify_conjecture([g for g in enumerated[n] if g.m >= n])[0] for n in range(4, 9)
    }


def test_criterion_1_exhaustive_bound(reports):
    with criterion(1, "zero violations and min gap exactly 4n-8 for n=4..8"):
        t0 = time.monotonic()
        for n in range(4, 9):
            r = reports[n]
            assert r.violations == (), f"n={n}: violations {r.violations}"
            assert r.min_gap == 4 * n - 8, f"n={n}: min gap {r.min_gap}"
            assert r.rejected == 0
        assert time.monotonic() - t0 < 600


def test_criterion_2_equality_characterization(reports):
    with criterion(2, "equality sets match the extremal family, both inclusions"):
        for n in range(4, 9):
            r = reports[n]
            assert r.extremal_match is True
            equality_codes = {e.canonical for e in r.equality_graphs}
            family_codes = {
                canonical_code(m.graph).decode("ascii") for m in extremal_family(n)
            }
            assert equality_codes == family_codes
            assert len(equality_codes) == len(rooted_trees(n - 3))


def test_criterion_3_named_graph_oracle_values(c4_pendant):
    with criterion(3, "named-graph values confirmed by brute-force pair/edge loops"):
        c4 = cycle_graph(4)
        k23 = complete_bipartite(2, 3)
        tree = star_graph(4)
        path = path_graph(6)
        expected = [
            (gap_brute, gap, c4, 8),
            (gap_brute, gap, c4_pendant, 12),
            (gap_brute, gap, k23, 22),
            (gap_brute, gap, tree, 0),
            (gap_brute, gap, path, 0),
            (szeged_brute, lambda g: compute_invariants(g).szeged, c4, 16),
            (szeged_brute, lambda g: compute_invariants(g).szeged, k23, 36),
        ]
        for oracle, impl, g, value in expected:
            assert oracle(g) == value
            assert impl(g) == value
        assert wiener_brute(c4) == 8 == wiener(all_pairs_distances(c4))
        assert wiener_brute(k23) == 14 == wiener(all_pairs_distances(k23))
        assert gap(k23) > 12


def test_criterion_4_pair_contribution_identity(enumerated):
    with criterion(4, "sum of pair contributions equals Sz on all graphs and random trees"):
        for n in range(1, 9):
            for g in enumerated[n]:
                assert sum(separation_counts(surplus_map(g))) == compute_invariants(g).szeged
        rng = random.Random(68141)
        checked = 0
        for _ in range(100):
            g = random_tree(rng.randint(4, 30), rng)
            sz = compute_invariants(g).szeged
            assert sum(separation_counts(surplus_map(g))) == sz
            assert pair_contribution_total_brute(g) == sz
            checked += 1
        assert checked == 100


def test_criterion_5_revised_szeged_corollary(enumerated):
    with criterion(5, "Sz* = Sz with all n_0 = 0 on bipartite graphs; Sz*(C5) = 125/4"):
        for n in range(1, 9):
            for g in enumerated[n]:
                parts = edge_partitions(g, all_pairs_distances(g))
                assert all(p.n_0 == 0 for p in parts)
                report = compute_invariants(g)
                assert report.revised_szeged == Fraction(report.szeged)
        c5 = cycle_graph(5)
        assert revised_szeged_times4_brute(c5) == 125
        assert compute_invariants(c5).revised_szeged == Fraction(125, 4)


def test_criterion_6_pair_surplus_claims(enumerated):
    with criterion(6, "surplus >= 1 on 2-connected bipartite graphs; antipodal separations"):
        # gap_decomposition checks both lemmas on every block with >= 4 vertices.
        blocks = 0
        for n in range(4, 9):
            for g in enumerated[n]:
                if g.m < n:
                    continue
                d = gap_decomposition(g)
                for verts in d.blocks.blocks:
                    if len(verts) >= 4:
                        pairs = combinations(sorted(verts), 2)
                        assert min(d.surplus.surplus(x, y) for x, y in pairs) >= 1, g.edges
                        blocks += 1
                smap = d.surplus
                cycle = shortest_cycle(g, smap.dist.rows)
                p, half, dist = len(cycle), len(cycle) // 2, floyd_warshall(g)
                cycle_edges = [tuple(sorted((cycle[j], cycle[(j + 1) % p]))) for j in range(p)]
                for x, y in zip(cycle, cycle[half:]):
                    assert smap.surplus(x, y) >= half
                    sep = smap.separating(x, y)
                    assert [sep >> j & 1 for j in range(g.m)] == [mu_brute(g, x, y, e, dist) for e in g.edges]
                    assert all(sep >> g.edges.index(e) & 1 for e in cycle_edges)
        assert blocks >= 200


def test_criterion_7_gap_decomposition(enumerated):
    with criterion(7, "category subtotals reconcile with Sz - W and respect every floor"):
        for n in range(4, 9):
            for g in enumerated[n]:
                if g.m < n:
                    continue
                d = gap_decomposition(g)
                assert d.total == gap(g)
                assert d.total == sum(d.within_block) + sum(d.cross_root.values()) + d.cross_other
                sizes = d.blocks.block_sizes
                for i in range(d.blocks.k):
                    floor = 4 * sizes[i] - 8 if sizes[i] >= 4 else 0
                    assert d.within_block[i] >= floor
                    if sizes[i] == 2:
                        assert d.within_block[i] == 0
                for i, sub in d.cross_root.items():
                    assert sub >= sizes[d.root_block] * (sizes[i] - 1)
                assert d.cross_other >= 0
                assert d.cross_pair_floor_ok and d.cross_witness_ok


def test_criterion_8_generator_validation(enumerated):
    with criterion(8, "generator class counts equal the labeled brute-force oracle, n <= 7"):
        for n in range(4, 8):
            mine = [g for g in enumerated[n] if g.m >= n]
            brute = brute_force_classes(n, n)
            assert len(mine) == len(brute), f"n={n}: {len(mine)} vs {len(brute)}"
        for n in range(2, 7):
            mine = list(generate(EnumerationSpec(n=n, min_edges=0)))
            brute = brute_force_classes(n, 0)
            assert len(mine) == len(brute)
