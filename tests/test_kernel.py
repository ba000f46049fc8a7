"""The separation kernel and the ball-mask distances against the brute-force oracles.

W is the total of the distance rows, halved.  Each edge's packed
difference decides every vertex's side of it: the edge partitions are
popcounts of the differences, and the per-vertex side masks, from which
`surplus_map`'s surpluses and `separating` masks derive, are a transpose of
them, checked on both sides of the one- to two-byte field switch.
`tests/oracles.py` recomputes the same numbers from Floyd-Warshall
distances and plain loops.
"""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from szlab.errors import DisconnectedGraphError, SizeLimitError
from szlab.graphs import (
    Graph,
    all_pairs_distances,
    bfs_forest,
    connected_and_bipartite,
    complete_bipartite,
    cycle_graph,
)
from szlab.invariants import compute_invariants, edge_partitions, wiener
from szlab.proofs import surplus_map

from .conftest import path_graph
from .oracles import (
    INF,
    edge_partition_brute,
    floyd_warshall,
    mu_brute,
    mu_pair_sum_brute,
    revised_szeged_times4_brute,
    side_masks_brute,
    surplus_brute,
    wiener_brute,
)


@st.composite
def connected_graphs(draw, max_n=12):
    """A random spanning tree plus extra edges; `bipartite` keeps tree-depth parity."""
    n = draw(st.integers(1, max_n))
    bipartite = draw(st.booleans())
    parent = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    depth = [0] * n
    for v in range(1, n):
        depth[v] = depth[parent[v - 1]] + 1
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not bipartite or (depth[u] + depth[v]) % 2 == 1
    ]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return Graph(n, [(parent[v - 1], v) for v in range(1, n)] + extra)


def separation_counts(smap) -> list[int]:
    """Each pair's separating-edge count, surplus + d(x, y), in pair order."""
    row = smap.dist.row
    return [s + row(x)[y] for (x, y), s in zip(combinations(range(smap.n), 2), smap.surpluses)]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(connected_graphs())
def test_kernel_matches_oracles(g):
    d = floyd_warshall(g)
    smap = surplus_map(g)
    pairs = list(combinations(range(g.n), 2))
    counts = separation_counts(smap)
    assert len(counts) == len(smap.surpluses) == len(pairs)
    for (x, y), count in zip(pairs, counts):
        assert smap.surplus(x, y) == smap.surplus(y, x) == surplus_brute(g, x, y, d)
        assert count == mu_pair_sum_brute(g, x, y, d)
        mask = smap.separating(x, y)
        assert mask == smap.separating(y, x)
        for i, e in enumerate(g.edges):
            assert mask >> i & 1 == mu_brute(g, x, y, e, d)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(connected_graphs())
@example(Graph(0, []))
@example(Graph(1, []))
@example(Graph(2, [(0, 1)]))
@example(Graph(12, list(combinations(range(12), 2))))  # K_12, 66 edges
@example(complete_bipartite(10, 10))  # 100 edges
def test_side_masks_match_their_definition(g):
    assert surplus_map(g).sides == side_masks_brute(g, floyd_warshall(g))


def _relabelled(n, edges, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges]), perm


def test_side_masks_on_two_byte_fields():
    # Closed-form distances on either side of the width switch: C256, the largest
    # graph with one-byte fields, and above n = 256, where a field is two bytes,
    # the odd cycle C257, whose every edge has an equidistant vertex, and
    # K_{3,255} (765 edges), bipartite and with a triangle on its small side.
    for n, width in ((256, 1), (257, 2)):
        cycle, perm = _relabelled(n, [(i, (i + 1) % n) for i in range(n)], 1)
        at = {v: i for i, v in enumerate(perm)}
        d = [[min(abs(at[x] - at[y]), n - abs(at[x] - at[y])) for y in range(n)] for x in range(n)]
        assert all_pairs_distances(cycle).width == width
        assert surplus_map(cycle).sides == side_masks_brute(cycle, d), n
    for triangle in ([], [(0, 1), (1, 2), (0, 2)]):
        edges = [(i, 3 + j) for i in range(3) for j in range(255)] + triangle
        dense, perm = _relabelled(258, edges, 2)
        small = {perm[i] for i in range(3)}
        inside = 1 if triangle else 2  # between two vertices of the small side
        d = [
            [0 if x == y else inside if x in small and y in small else 1 if x in small or y in small else 2
             for y in range(258)]
            for x in range(258)
        ]
        assert all_pairs_distances(dense).width == 2
        assert surplus_map(dense).sides == side_masks_brute(dense, d)


def test_triangle_surpluses_are_zero():
    # Each pair is separated only by its own edge; the third vertex of the
    # opposite edge is equidistant from its endpoints.
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert not connected_and_bipartite(triangle, bfs_forest(triangle))[1]
    # Pairs (0, 1), (0, 2), (1, 2), in pair order.
    assert surplus_map(triangle).surpluses == [0, 0, 0]


@st.composite
def graphs_up_to_16(draw):
    """A random spanning tree or forest on 1..16 vertices plus extra edges.

    With `forest`, a vertex may start a new component instead of hanging
    below an earlier one; `bipartite` keeps extra edges between depths of
    opposite parity.
    """
    n = draw(st.integers(1, 16))
    bipartite = draw(st.booleans())
    forest = draw(st.booleans())
    depth = [0] * n
    pairs = []
    for v in range(1, n):
        p = draw(st.integers(0, v if forest else v - 1))
        if p < v:
            depth[v] = depth[p] + 1
            pairs.append((p, v))
    allowed = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not bipartite or (depth[u] + depth[v]) % 2 == 1
    ]
    extra = draw(st.lists(st.sampled_from(allowed), max_size=2 * n)) if allowed else []
    return Graph(n, pairs + extra)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(graphs_up_to_16())
def test_ball_distances_match_oracles(g):
    rows = floyd_warshall(g)
    if any(INF in row for row in rows):
        with pytest.raises(DisconnectedGraphError, match="^invariant requires a connected graph$"):
            all_pairs_distances(g)
        return
    dist = all_pairs_distances(g)
    assert [tuple(dist.row(v)) for v in g.vertices()] == list(map(tuple, rows))
    for e, p in zip(g.edges, edge_partitions(g, dist)):
        assert (p.n_u, p.n_v, p.n_0) == edge_partition_brute(g, e)
    assert wiener(dist) == wiener_brute(g)
    assert compute_invariants(g).revised_szeged_times4 == revised_szeged_times4_brute(g)


def test_distances_refuse_more_vertices_than_two_byte_fields_hold():
    # A distance of 65,536 or more would carry into the next field; the
    # refusal comes before the balls grow, so it is not DisconnectedGraphError.
    with pytest.raises(SizeLimitError, match="n <= 65,536, got 65537$"):
        all_pairs_distances(Graph(65_537, []))


@pytest.mark.parametrize("n", [255, 256, 257, 300])
def test_two_byte_fields_match_closed_forms(n):
    # Above n = 256 a distance field is two bytes wide.
    path = all_pairs_distances(path_graph(n))
    assert path.width == (1 if n <= 256 else 2)
    assert [tuple(path.row(x)) for x in range(n)] == [tuple(abs(x - y) for y in range(n)) for x in range(n)]
    report = compute_invariants(path_graph(n))
    assert report.wiener == report.szeged == (n**3 - n) // 6
    if n % 2 == 0:
        cycle = all_pairs_distances(cycle_graph(n))
        rows = [tuple(cycle.row(x)) for x in range(n)]
        assert rows == list(zip(*rows))
        assert rows[0] == tuple(min(y, n - y) for y in range(n))
        report = compute_invariants(cycle_graph(n))
        assert (report.wiener, report.szeged) == (n**3 // 8, n**3 // 4)
