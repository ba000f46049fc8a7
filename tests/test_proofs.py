import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from szlab.cli import main
from szlab.errors import DisconnectedGraphError, HypothesisError
from szlab.formats import to_graph6
from szlab.graphs import (
    Graph,
    all_pairs_distances,
    bfs_forest,
    block_decomposition,
    cycle_graph,
    shortest_cycle,
)
from szlab.invariants import gap
from szlab.proofs import gap_decomposition, surplus_map

from .conftest import path_graph
from .oracles import floyd_warshall, gap_brute, mu_brute, pair_categories_brute, surplus_brute
from .test_dump import block_tree


def test_surplus_map_c4(c4):
    s = surplus_map(c4)
    assert s.surplus(0, 1) == 1 and s.surplus(1, 2) == 1
    assert s.surplus(0, 2) == 2 and s.surplus(1, 3) == 2
    assert s.total == 8 == gap_brute(c4)
    assert s.histogram() == {1: 4, 2: 2}


def test_surplus_map_c4_pendant(c4_pendant):
    # pendant vertex 4 sits on vertex 0; antipode on the cycle is 2
    s = surplus_map(c4_pendant)
    assert s.surplus(4, 2) == 2
    assert s.surplus(4, 1) == 1 and s.surplus(4, 3) == 1
    assert s.surplus(4, 0) == 0
    assert s.total == 12


def test_surplus_rejects_vertices_out_of_range(c4_pendant):
    s = surplus_map(c4_pendant)
    for x, y in [(0, 5), (-1, 2), (4, 7), (3, 3)]:
        with pytest.raises(ValueError, match=rf"^\({x}, {y}\) is not a pair of distinct vertices of 0\.\.4$"):
            s.surplus(x, y)


def test_surplus_map_rejects_disconnected_graph():
    with pytest.raises(DisconnectedGraphError):
        surplus_map(Graph(4, [(0, 1), (2, 3)]))


def test_surplus_map_tree_is_zero(p3):
    s = surplus_map(p3)
    assert set(s.surpluses) == {0}
    assert s.total == 0


def test_surplus_matches_oracle(enumerated):
    for g in enumerated[6]:
        s = surplus_map(g)
        d = floyd_warshall(g)
        for x, y in combinations(range(g.n), 2):
            assert s.surplus(x, y) == surplus_brute(g, x, y, d)


def test_surpluses_nonnegative_on_connected_graphs(enumerated, c5):
    # every edge of a shortest path separates the pair, so surplus >= 0
    for graphs in enumerated.values():
        for g in graphs:
            assert all(v >= 0 for v in surplus_map(g).surpluses)
    assert all(v >= 0 for v in surplus_map(c5).surpluses)


def _rows(dist):
    """Every distance row, indexed by vertex, as shortest_cycle reads them."""
    return [dist.row(v) for v in range(dist.n)]


def _lemma_blocks(g, d):
    """Each block of d with >= 4 vertices, with the shortest cycle of the subgraph it induces in g."""
    for verts in d.blocks.blocks:
        if len(verts) >= 4:
            order = sorted(verts)
            index = {v: i for i, v in enumerate(order)}
            block = Graph(len(order), [(index[u], index[v]) for u, v in g.edges if u in verts and v in verts])
            cycle = shortest_cycle(block, _rows(all_pairs_distances(block)), range(block.n))
            yield order, tuple(order[v] for v in cycle)


def _least_block_surplus(d, order):
    return min(d.surplus.surplus(x, y) for x, y in combinations(order, 2))


def test_min_pair_surplus_c4_and_k23(c4, k23):
    # gap_decomposition checks the surplus lemma on the one block of each.
    assert _least_block_surplus(gap_decomposition(c4), range(4)) == 1
    assert _least_block_surplus(gap_decomposition(k23), range(5)) == 2


def test_min_pair_surplus_hypothesis_gates(c4_pendant, c5, p3):
    # The lemma is checked on each block with >= 4 vertices, so a graph that is
    # not 2-connected is in scope, and gap_decomposition's hypotheses gate it.
    assert _least_block_surplus(gap_decomposition(c4_pendant), range(4)) == 1
    with pytest.raises(HypothesisError, match="bipartite"):
        gap_decomposition(c5)
    with pytest.raises(HypothesisError, match="m >= n"):
        gap_decomposition(p3)
    with pytest.raises(HypothesisError, match="connected"):
        gap_decomposition(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_min_pair_surplus_exhaustive(enumerated):
    # every pair inside every block with >= 4 vertices, over every connected
    # bipartite graph with m >= n on 4..8 vertices
    count = 0
    for n in range(4, 9):
        for g in enumerated[n]:
            if g.m < n:
                continue
            d = gap_decomposition(g)
            for order, _ in _lemma_blocks(g, d):
                assert _least_block_surplus(d, order) >= 1, (g.edges, order)
                count += 1
    assert count == 213


def test_two_connected_bound_equality_only_c4(enumerated):
    from szlab.canon import canonical_code

    c4_code = canonical_code(cycle_graph(4))
    for n in range(4, 9):
        for g in enumerated[n]:
            if block_decomposition(g, bfs_forest(g)[1]).k != 1:
                continue
            value = gap(g)
            assert value >= 4 * n - 8
            if value == 4 * n - 8:
                assert canonical_code(g) == c4_code


def test_antipodal_cycle_c4(c4):
    d = gap_decomposition(c4)
    assert list(_lemma_blocks(c4, d)) == [([0, 1, 2, 3], (0, 1, 2, 3))]
    for x, y in [(0, 2), (1, 3)]:
        assert d.surplus.separating(x, y) == 0b1111
        assert d.surplus.surplus(x, y) == 2


def test_antipodal_cycle_c6(c6):
    s = gap_decomposition(c6).surplus
    for i in range(3):
        assert s.separating(i, i + 3) == 0b111111
        assert s.surplus(i, i + 3) == 3  # 6 separating edges minus distance 3


def test_antipodal_cycle_c4_pendant(c4_pendant):
    d = gap_decomposition(c4_pendant)
    ((order, cycle),) = _lemma_blocks(c4_pendant, d)
    assert order == [0, 1, 2, 3] and cycle == shortest_cycle(c4_pendant, _rows(d.surplus.dist), range(5))
    for x, y in [(0, 2), (1, 3)]:
        assert all(mu_brute(c4_pendant, x, y, e) == 1 for e in [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert d.surplus.surplus(x, y) >= 2


def test_antipodal_cycle_builds_distances_once(monkeypatch):
    # The antipodal lemma reads gap_decomposition's one surplus map and its side masks.
    from szlab import graphs, invariants, proofs

    calls = []
    real = graphs.all_pairs_distances

    def counted(g):
        calls.append(g)
        return real(g)

    for module in (graphs, invariants, proofs):
        monkeypatch.setattr(module, "all_pairs_distances", counted)
    gap_decomposition(cycle_graph(8))
    assert len(calls) == 1


def test_gap_decomposition_holds_no_decoded_distance_rows():
    # C400 has two-byte distance fields.  What the result holds is one list in pair
    # order, the surpluses (79,800 pointers, some 0.6 MiB), beside the side masks and
    # the packed distances: some 1.1 MiB.  Any second pointer-per-pair list, a stored
    # category per pair or rows kept decoded as tuples of ints, adds 0.6 MiB or more.
    g = cycle_graph(400)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d = gap_decomposition(g)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert d.total == 400**3 // 8
    assert held < 1.5 * 2**20, f"{held / 2**10:.0f} KiB held after return"


def test_antipodal_cycle_gates(c5, p3):
    # m >= n, which forces a cycle, is the gate that keeps acyclic input out.
    with pytest.raises(HypothesisError, match="bipartite"):
        gap_decomposition(c5)
    with pytest.raises(HypothesisError, match="m >= n"):
        gap_decomposition(p3)


def _assert_block_cycles_in_place(g):
    """Assert each block's cycle found in g equals its induced block's; the decomposition and the cycles."""
    d = gap_decomposition(g)
    orders, cycles = zip(*_lemma_blocks(g, d))
    assert [shortest_cycle(g, _rows(d.surplus.dist), order) for order in orders] == list(cycles)
    return d, cycles


def test_antipodal_cycle_exhaustive(enumerated):
    # gap_decomposition checks the lemma on every block's shortest cycle,
    # found in place: the same cycle as in the block induced and relabelled
    # in sorted order.  The graph's own shortest cycle is one of them (the
    # scan's least source, vertex and lower neighbors stay least when a block
    # is relabelled in sorted order), and each of its edges separates each
    # antipodal pair (brute-force mu).
    for seed in range(20):
        g = block_tree(random.Random(seed), 10 + 3 * seed)
        d, cycles = _assert_block_cycles_in_place(g)
        assert shortest_cycle(g, _rows(d.surplus.dist), range(g.n)) in cycles
    for n in range(4, 9):
        for g in enumerated[n]:
            if g.m < n:
                continue
            d, cycles = _assert_block_cycles_in_place(g)
            cycle = shortest_cycle(g, _rows(d.surplus.dist), range(n))
            assert cycle in cycles
            p, dist = len(cycle), floyd_warshall(g)
            for i in range(p // 2):
                x, y = cycle[i], cycle[i + p // 2]
                for j in range(p):
                    e = tuple(sorted((cycle[j], cycle[(j + 1) % p])))
                    assert mu_brute(g, x, y, e, dist) == 1


def test_gap_decomposition_c4_pendant(c4_pendant):
    d = gap_decomposition(c4_pendant)
    assert d.within_block == (8, 0)
    assert list(d.cross_root.values()) == [4]
    assert d.cross_other == 0
    assert d.total == 12 == 4 * 5 - 8
    assert d.cross_pair_floor_ok and d.cross_witness_ok


def test_gap_decomposition_c4_tail3(c4_tail3):
    # every category floor is tight here: 8 within the cycle block, 4 per
    # bridge block, 0 elsewhere
    d = gap_decomposition(c4_tail3)
    assert d.total == 20 == 4 * 7 - 8
    sizes = d.blocks.block_sizes
    root = d.root_block
    assert sizes[root] == 4
    assert d.within_block[root] == 8
    assert all(d.within_block[i] == 0 for i in range(d.blocks.k) if i != root)
    assert all(sub == 4 for sub in d.cross_root.values())
    assert d.cross_other == 0


def test_gap_decomposition_outward_walk_homes_and_gates():
    # Designated 6-cycle 0..5; cut vertex 0 is shared by the 6-cycle, the
    # 4-cycle 0-6-7-8 and the bridge 0-9; the bridge chain 3-10-11-12 puts
    # block (11, 12) three levels out, entered through gate 3; bridge 7-13
    # hangs off the 4-cycle.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 8), (8, 0),
             (0, 9), (3, 10), (10, 11), (11, 12), (7, 13)]
    d = gap_decomposition(Graph(14, edges))
    assert d.root_block == 0
    assert [sorted(b) for b in d.blocks.blocks] == [
        [0, 1, 2, 3, 4, 5], [0, 6, 7, 8], [0, 9], [3, 10], [7, 13], [10, 11], [11, 12]
    ]
    assert d.home == [0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 3, 5, 6, 4]
    assert d.gate == [-1, 0, 0, 3, 7, 10, 11]
    assert Counter(cat for *_, cat in d.pair_rows()) == {
        ("within", 0): 15, ("within", 1): 6,
        ("within", 2): 1, ("within", 3): 1, ("within", 4): 1, ("within", 5): 1, ("within", 6): 1,
        ("cross_root", 1): 15, ("cross_root", 2): 5, ("cross_root", 3): 5,
        ("cross_root", 4): 6, ("cross_root", 5): 6, ("cross_root", 6): 6,
        ("cross_other", (1, 2)): 3, ("cross_other", (1, 3)): 3, ("cross_other", (1, 4)): 2,
        ("cross_other", (1, 5)): 3, ("cross_other", (1, 6)): 3, ("cross_other", (2, 3)): 1,
        ("cross_other", (2, 4)): 1, ("cross_other", (2, 5)): 1, ("cross_other", (2, 6)): 1,
        ("cross_other", (3, 4)): 1, ("cross_other", (3, 6)): 1, ("cross_other", (5, 4)): 1,
        ("cross_other", (6, 4)): 1,
    }
    # Gate 3 is excluded from the near side of blocks 5 and 6; with gate 0
    # there, the bridge pairs (3, 11) and (3, 12) would break the floor.
    assert d.cross_pair_floor_ok and d.cross_witness_ok
    assert d.total == 210


def test_gap_decomposition_two_pendants_not_extremal(c4_two_pendants):
    d = gap_decomposition(c4_two_pendants)
    assert d.total == gap(c4_two_pendants) > 4 * 6 - 8


def test_gap_decomposition_hypothesis_gates(p3, c5):
    with pytest.raises(HypothesisError, match="m >= n"):
        gap_decomposition(path_graph(5))
    with pytest.raises(HypothesisError, match="bipartite"):
        gap_decomposition(c5)
    with pytest.raises(HypothesisError, match="connected"):
        gap_decomposition(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_hypothesis_errors_name_the_first_violation():
    disconnected_tree = Graph(6, [(0, 1), (1, 2), (3, 4)])
    disconnected_c3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    c5_pendant = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)])
    cases = [
        (gap_decomposition, disconnected_tree, "connected"),
        (gap_decomposition, disconnected_c3, "connected"),
        (gap_decomposition, Graph(3, [(0, 1)]), "connected"),
        (gap_decomposition, c5_pendant, "bipartite"),
        # At n = 0 connected, bipartite and m >= n would otherwise hold vacuously.
        (gap_decomposition, Graph(0, []), "connected"),
    ]
    for check, g, first in cases:
        with pytest.raises(HypothesisError, match=f"^{first} violated$"):
            check(g)


def test_gap_decomposition_categories_partition_pairs(c4_tail3):
    d = gap_decomposition(c4_tail3)
    categories = [cat for *_, cat in d.pair_rows()]
    assert len(categories) == c4_tail3.n * (c4_tail3.n - 1) // 2
    within = sum(s for s, cat in zip(d.surplus.surpluses, categories) if cat[0] == "within")
    assert within == sum(d.within_block)


def test_gap_decomposition_reconciles_exhaustive(enumerated):
    for n in range(4, 9):
        for g in enumerated[n]:
            if g.m < n:
                continue
            d = gap_decomposition(g)
            assert d.total == gap(g)
            assert d.total == sum(d.within_block) + sum(d.cross_root.values()) + d.cross_other
            assert d.total >= 4 * n - 8
            sizes = d.blocks.block_sizes
            for i in range(d.blocks.k):
                if sizes[i] >= 4:
                    assert d.within_block[i] >= 4 * sizes[i] - 8
                else:
                    assert sizes[i] == 2 and d.within_block[i] == 0
            for i, sub in d.cross_root.items():
                assert sub >= sizes[d.root_block] * (sizes[i] - 1)
            assert d.cross_other >= 0
            assert d.cross_pair_floor_ok and d.cross_witness_ok


def test_gap_decomposition_blocks_of_size_two_contribute_zero(enumerated):
    for n in range(5, 9):
        for g in enumerated[n]:
            if g.m < n:
                continue
            d = gap_decomposition(g)
            categories = [cat for *_, cat in d.pair_rows()]
            bridge_pairs = [
                (x, y)
                for (x, y), cat in zip(combinations(range(n), 2), categories, strict=True)
                if cat[0] == "within" and d.blocks.block_sizes[cat[1]] == 2
            ]
            for x, y in bridge_pairs:
                assert d.surplus.surplus(x, y) == 0


def test_gap_decomposition_json_shape(c4_pendant, capsys):
    payload = gap_decomposition(c4_pendant).to_json_dict()
    assert payload["schema"] == 1
    assert payload["gap"] == 12 and payload["bound"] == 12
    assert payload["blocks"][payload["designated_block"]]["size"] == 4
    assert "surplus_histogram" in payload
    assert main(["decompose", "--graph6", to_graph6(c4_pendant), "--format", "csv"]) == 0
    csv_lines = capsys.readouterr().out.splitlines()
    assert csv_lines[0].startswith("x,y,distance")
    assert len(csv_lines) == 1 + 10


def _relabeled(n, edges, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_gap_decomposition_block_above_canon_limit():
    # A 20-cycle block, above the canonical labeling limit, with hanging trees.
    edges = [(i, (i + 1) % 20) for i in range(20)]
    edges += [(0, 20), (20, 21), (21, 22), (5, 23), (5, 24), (24, 25), (13, 26)]
    g = _relabeled(27, edges, 20)
    d = gap_decomposition(g)
    assert d.blocks.block_sizes[d.root_block] == 20
    assert sum(d.surplus.surpluses) == d.total == gap(g) >= 4 * g.n - 8
    assert d.total == sum(d.within_block) + sum(d.cross_root.values()) + d.cross_other


def test_gap_decomposition_tied_blocks_above_canon_limit():
    # Two 18-cycle blocks sharing a vertex tie for largest, above the
    # canonical labeling limit; the least sorted vertex list is designated.
    edges = [(i, (i + 1) % 18) for i in range(18)]
    ring = [0, *range(18, 35)]
    edges += [(ring[i], ring[(i + 1) % 18]) for i in range(18)]
    edges += [(9, 35)]
    g = _relabeled(36, edges, 18)
    d = gap_decomposition(g)
    sizes = d.blocks.block_sizes
    tied = [i for i in range(d.blocks.k) if sizes[i] == 18]
    assert len(tied) == 2
    assert d.root_block == min(tied, key=lambda i: sorted(d.blocks.blocks[i]))
    assert sum(d.surplus.surpluses) == d.total == gap(g) >= 4 * g.n - 8


def _permuted(g, perm):
    perm = list(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# C6 on 0..5 and a theta graph (C6 5..10 plus the antipodal chord 5-8) share vertex 5.
C6_THETA = Graph(11, [(i, i + 1) for i in range(10)] + [(0, 5), (5, 10), (5, 8)])


def _designation(g):
    """Assert the least sorted vertex list of the tied largest blocks is designated; the decomposition's
    gap, floors and cross-other surplus, and the designated block's edge count."""
    d = gap_decomposition(g)
    tied = [sorted(b) for b in d.blocks.blocks if len(b) == max(d.blocks.block_sizes)]
    root = sorted(d.blocks.blocks[d.root_block])
    assert len(tied) == 2 and root == min(tied)
    blocks = d.to_json_dict()["blocks"]
    within = sorted(b["within_floor"] for b in blocks)
    cross = sorted(b["cross_floor"] for b in blocks if "cross_floor" in b)
    return d.total, (within, cross), d.cross_other, sum(g.has_edge(u, v) for u, v in combinations(root, 2))


def test_tied_designated_block_follows_the_labeling():
    # Tied largest blocks: the least sorted vertex list is designated.  Two
    # 4-cycles sharing vertex 3, with a 2-path on vertex 1; relabelled, the
    # 2-path hangs off the other cycle: the categories move, the gap and
    # every floor do not.  In C6_THETA the tied blocks are not isomorphic,
    # and relabelled, the theta graph is designated instead of the C6.
    c4s = Graph(9, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6), (3, 6), (1, 7), (7, 8)])
    found = [_designation(g) for g in (c4s, _permuted(c4s, [4, 5, 6, 3, 0, 1, 2, 7, 8]))]
    assert [f[:2] for f in found] == [(68, ([0, 0, 8, 8], [4, 4, 12]))] * 2
    assert [f[2] for f in found] == [20, 4]
    found = [_designation(g) for g in (C6_THETA, _permuted(C6_THETA, range(10, -1, -1)))]
    assert [f[:3] for f in found] == [(gap(C6_THETA), ([16, 16], [30]), 0)] * 2
    assert [f[3] for f in found] == [6, 7]


def test_tied_designation_needs_no_canonical_labeling(monkeypatch):
    from szlab import canon

    def refuse(g):
        raise AssertionError("canonical labeling in gap_decomposition")

    monkeypatch.setattr(canon, "_canonical_labeling", refuse)
    assert _designation(C6_THETA) == (gap(C6_THETA), ([16, 16], [30]), 0, 6)


def test_pair_rows_ascend_on_relabelled_block_tree():
    # Blocks 6-cycle, 4-cycle and bridges, relabelled so blocks do not run in vertex order.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 8), (8, 0),
             (0, 9), (3, 10), (10, 11), (11, 12), (7, 13)]
    d = gap_decomposition(_relabeled(14, edges, 7))
    assert [(x, y) for x, y, *_ in d.pair_rows()] == list(combinations(range(14), 2))


def _assert_categories_match_oracle(g):
    # Each pair's category and every subtotal, regrouped from the oracle's categories.
    d = gap_decomposition(g)
    expected = pair_categories_brute(g, d.root_block)
    pairs = list(combinations(range(g.n), 2))
    assert [cat for *_, cat in d.pair_rows()] == [expected[p] for p in pairs]
    within = [0] * d.blocks.k
    cross_root = {i: 0 for i in range(d.blocks.k) if i != d.root_block}
    cross_other = 0
    for p, s in zip(pairs, d.surplus.surpluses, strict=True):
        kind, where = expected[p]
        if kind == "within":
            within[where] += s
        elif kind == "cross_root":
            cross_root[where] += s
        else:
            cross_other += s
    assert (d.within_block, d.cross_root, d.cross_other) == (tuple(within), cross_root, cross_other)


def test_pair_categories_match_oracle_exhaustive(enumerated):
    for n in range(4, 9):
        for g in enumerated[n]:
            if g.m >= n:
                _assert_categories_match_oracle(g)


def test_pair_categories_match_oracle_on_relabelled_block_trees():
    for seed in range(24):
        _assert_categories_match_oracle(block_tree(random.Random(seed), 12 + 2 * seed))
