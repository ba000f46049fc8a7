"""The separation kernel and the ball-mask distances against the brute-force oracles.

`surplus_map`'s surpluses and its `separating` masks both derive from the
per-vertex edge-side masks; W is the digit sum of the packed distance rows
and the edge partitions are popcounts of their differences.
`tests/oracles.py` recomputes the same numbers from Floyd-Warshall
distances and plain loops.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szlab.errors import DisconnectedGraphError, SizeLimitError
from szlab.graphs import (
    Graph,
    all_pairs_distances,
    connected_and_bipartite,
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
    rows = smap.dist.rows
    return [s + rows[x][y] for (x, y), s in zip(combinations(range(smap.n), 2), smap.surpluses)]


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


def test_triangle_surpluses_are_zero():
    # Each pair is separated only by its own edge; the third vertex of the
    # opposite edge is equidistant from its endpoints.
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert not connected_and_bipartite(triangle)[1]
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
    assert dist.rows == tuple(map(tuple, rows))
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
    assert path.rows == tuple(tuple(abs(x - y) for y in range(n)) for x in range(n))
    report = compute_invariants(path_graph(n))
    assert report.wiener == report.szeged == (n**3 - n) // 6
    if n % 2 == 0:
        cycle = all_pairs_distances(cycle_graph(n))
        assert cycle.rows == tuple(zip(*cycle.rows))
        assert cycle.rows[0] == tuple(min(y, n - y) for y in range(n))
        report = compute_invariants(cycle_graph(n))
        assert (report.wiener, report.szeged) == (n**3 // 8, n**3 // 4)
