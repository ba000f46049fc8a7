"""The separation kernel against the brute-force oracles on random graphs.

`surplus_map`, `mu_table(...).pair_sums` and `mu` all derive from the
per-vertex edge-side masks; `tests/oracles.py` recomputes the same numbers
from Floyd-Warshall distances and plain loops.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from szlab.graphs import Graph, all_pairs_distances, is_bipartite
from szlab.invariants import mu, mu_table
from szlab.proofs import surplus_map

from .oracles import floyd_warshall, mu_brute, mu_pair_sum_brute, surplus_brute


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus extra edges; `bipartite` keeps tree-depth parity."""
    n = draw(st.integers(1, 12))
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


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(connected_graphs())
def test_kernel_matches_oracles(g):
    d = floyd_warshall(g)
    dist = all_pairs_distances(g)
    smap = surplus_map(g)
    sums = mu_table(g).pair_sums
    for x in range(g.n):
        for y in range(x + 1, g.n):
            assert smap.surplus(x, y) == surplus_brute(g, x, y, d)
            assert sums[(x, y)] == mu_pair_sum_brute(g, x, y, d)
            for e in g.edges:
                assert mu(g, dist, x, y, e) == mu_brute(g, x, y, e, d)


def test_triangle_surpluses_are_zero():
    # Each pair is separated only by its own edge; the third vertex of the
    # opposite edge is equidistant from its endpoints.
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_bipartite(triangle)
    assert surplus_map(triangle).surpluses == {(0, 1): 0, (0, 2): 0, (1, 2): 0}
