import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szlab import enumeration, graphs, invariants, proofs
from szlab.enumeration import _bipartite_safe_additions
from szlab.errors import DisconnectedGraphError, GraphConstructionError
from szlab.graphs import (
    Graph,
    all_pairs_distances,
    bfs_forest,
    block_decomposition,
    complete_bipartite,
    connected_and_bipartite,
    cycle_graph,
    shortest_cycle,
    star_graph,
)

from .conftest import path_graph
from .oracles import INF, floyd_warshall, girth_brute, two_colorings
from .test_kernel import connected_graphs


def test_from_edge_list_c4():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.m == 4
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_from_edge_list_path_and_k23():
    assert Graph(3, [(0, 1), (1, 2)]).m == 2
    g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert g.m == 6


def test_from_edge_list_collapses_duplicates():
    g = Graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.m == 2


def test_neighbors_are_sorted_whatever_the_pair_order():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 10)
        pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        shuffled = flipped * 2
        rng.shuffle(shuffled)
        for given in (pairs, pairs[::-1], [(v, u) for u, v in reversed(pairs)], shuffled):
            g = Graph(n, given)
            for v in g.vertices():
                assert g.neighbors(v) == tuple(sorted({w for e in pairs if v in e for w in e} - {v}))


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(GraphConstructionError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphConstructionError):
        Graph(3, [(1, 1)])


def test_distances_c4(c4):
    d = all_pairs_distances(c4)
    assert d.rows[0][2] == 2 and d.rows[1][3] == 2
    assert d.rows[0][1] == 1


def test_distances_match_floyd_warshall(enumerated):
    for graphs in enumerated.values():
        for g in graphs:
            d = all_pairs_distances(g)
            fw = floyd_warshall(g)
            for x in g.vertices():
                for y in g.vertices():
                    assert d.rows[x][y] == int(fw[x][y])


def test_distance_matrix_properties(enumerated, k23, p3):
    d = all_pairs_distances(k23)
    assert d.rows[0][1] == 2  # the two degree-3 vertices
    assert all_pairs_distances(p3).rows[0][2] == 2
    for g in enumerated[6]:
        d = all_pairs_distances(g)
        for x in g.vertices():
            assert d.rows[x][x] == 0
            for y in g.vertices():
                assert d.rows[x][y] == d.rows[y][x]
                assert (d.rows[x][y] == 1) == g.has_edge(x, y)


def test_distances_reject_disconnected():
    # The one connectivity check for distances; the null graph and K_1 pass.
    for g in [Graph(4, [(0, 1), (2, 3)]), Graph(2, []), Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)])]:
        with pytest.raises(DisconnectedGraphError, match="^invariant requires a connected graph$"):
            all_pairs_distances(g)
    assert all_pairs_distances(Graph(0, [])).rows == ()
    assert all_pairs_distances(Graph(1, [])).rows == ((0,),)


def test_is_connected(c4):
    assert connected_and_bipartite(c4)[0]
    assert not connected_and_bipartite(Graph(4, [(0, 1), (2, 3)]))[0]
    assert not connected_and_bipartite(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)]))[0]
    # The null graph is not connected, as in networkx.
    assert connected_and_bipartite(Graph(0, [])) == (False, True)


@st.composite
def any_graphs(draw):
    """Connected or not; `bipartite` keeps only edges across a random 2-coloring."""
    n = draw(st.integers(1, 12))
    color = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bipartite = draw(st.booleans())
    pairs = [(u, v) for u, v in combinations(range(n), 2) if not bipartite or color[u] != color[v]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return Graph(n, edges)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(any_graphs())
def test_safe_additions_match_brute_colorings(g):
    colorings = two_colorings(g)
    if not colorings:
        return
    # g + uv is bipartite iff some 2-coloring of g puts u and v apart.
    assert _bipartite_safe_additions(g, *bfs_forest(g)) == [
        (u, v)
        for u, v in combinations(g.vertices(), 2)
        if not g.has_edge(u, v) and any(c[u] != c[v] for c in colorings)
    ]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(any_graphs())
def test_connected_and_bipartite_match_oracles(g):
    connected = all(x is not INF for row in floyd_warshall(g) for x in row)
    assert connected_and_bipartite(g) == (connected, bool(two_colorings(g)))


def _count_calls(monkeypatch, calls, name, *modules):
    real = getattr(graphs, name)
    for module in modules:
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))


def test_hypotheses_come_from_one_bfs_forest(monkeypatch, c4, c4_pendant):
    calls = []
    _count_calls(monkeypatch, calls, "bfs_forest", graphs)
    _count_calls(monkeypatch, calls, "_distances_from", graphs)
    _count_calls(monkeypatch, calls, "all_pairs_distances", graphs, invariants, proofs)
    examine = lambda g: enumeration._examine(g, False)
    for check, g in [
        (proofs.gap_decomposition, c4_pendant),
        (proofs.gap_decomposition, c4),
        (examine, c4_pendant),
        (examine, cycle_graph(5)),
    ]:
        calls.clear()
        check(g)
        assert calls.count("bfs_forest") == 1, check
    calls.clear()
    proofs.gap_decomposition(c4_pendant)
    # A count, not a bound: the forest's one BFS and the BFS tree
    # block_decomposition is built on.  The 4-cycle block's shortest cycle is
    # read off the surplus map's distance rows, with no BFS of its own.
    assert calls.count("_distances_from") == 2
    calls.clear()
    invariants.compute_invariants(c4_pendant)
    assert calls == ["all_pairs_distances"]


def test_block_decomposition_c4_pendant(c4_pendant):
    d = block_decomposition(c4_pendant)
    assert d.k == 2
    assert set(d.blocks) == {frozenset({0, 1, 2, 3}), frozenset({0, 4})}
    assert d.cut_vertices == frozenset({0})
    assert sum(d.block_sizes) == c4_pendant.n + d.k - 1


def test_block_decomposition_tree():
    g = star_graph(4)
    d = block_decomposition(g)
    assert d.k == g.n - 1
    assert all(size == 2 for size in d.block_sizes)


def test_block_decomposition_two_connected(c4):
    d = block_decomposition(c4)
    assert d.k == 1 and not d.cut_vertices


def test_block_decomposition_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        block_decomposition(Graph(4, [(0, 1), (2, 3)]))


def test_block_decomposition_degenerate_cases():
    single_edge = block_decomposition(Graph(2, [(0, 1)]))
    assert single_edge.k == 1 and single_edge.blocks == (frozenset({0, 1}),)
    assert not single_edge.cut_vertices
    lone_vertex = block_decomposition(Graph(1, []))
    assert lone_vertex.k == 0


def _assert_blocks_match_networkx(g):
    ref = nx.Graph(g.edges)
    ref.add_nodes_from(g.vertices())
    d = block_decomposition(g)
    assert sorted(map(sorted, d.blocks)) == sorted(map(sorted, nx.biconnected_components(ref)))
    assert sorted(map(sorted, d.block_edges)) == sorted(
        sorted(tuple(sorted(e)) for e in edges) for edges in nx.biconnected_component_edges(ref)
    )
    assert d.cut_vertices == set(nx.articulation_points(ref))


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(connected_graphs(max_n=16))
def test_blocks_match_networkx(g):
    _assert_blocks_match_networkx(g)


@pytest.mark.parametrize(
    "ref",
    [
        nx.cycle_graph(41),
        nx.ladder_graph(12),
        nx.grid_2d_graph(4, 5),
        nx.barbell_graph(5, 3),
    ],
    ids=["cycle41", "ladder12", "grid4x5", "barbell5_3"],
)
def test_blocks_match_networkx_on_fixed_graphs(ref):
    ref = nx.convert_node_labels_to_integers(ref, ordering="sorted")
    _assert_blocks_match_networkx(Graph(ref.number_of_nodes(), ref.edges))


def test_block_identity_and_cut_membership(enumerated):
    for graphs in enumerated.values():
        for g in graphs:
            d = block_decomposition(g)
            assert sum(d.block_sizes) == max(g.n + d.k - 1, 0)
            # each edge in exactly one block
            assigned = [e for edges in d.block_edges for e in edges]
            assert sorted(assigned) == list(g.edges)
            for v in g.vertices():
                in_blocks = sum(1 for b in d.blocks if v in b)
                assert (in_blocks >= 2) == (v in d.cut_vertices)


def _cycle(g):
    """shortest_cycle on Floyd-Warshall rows, -1 where unreachable, so disconnected g is in scope too."""
    return shortest_cycle(g, [[-1 if d == INF else d for d in row] for row in floyd_warshall(g)])


def _assert_shortest_cycle(g):
    """The shortest cycle is a simple closed cycle of length girth_brute(g), or None for forests."""
    cyc = _cycle(g)
    expected = girth_brute(g)
    if expected is None:
        assert cyc is None
    else:
        assert len(set(cyc)) == len(cyc) == expected
        assert all(g.has_edge(v, cyc[i - 1]) for i, v in enumerate(cyc))
    return cyc


def test_shortest_cycle_basics(c4_pendant):
    assert _cycle(c4_pendant) == (0, 1, 2, 3)
    assert _cycle(path_graph(5)) is None
    # Ties go to the least source, vertex and lower neighbors.  C7's closing
    # from source 0 is the edge 3-4 inside shell 3.
    assert _cycle(cycle_graph(7)) == (0, 1, 2, 3, 4, 5, 6)
    # K_{2,3}: source 0, vertex 1 with lower neighbors 2 and 3, the least of 2, 3, 4.
    assert _cycle(complete_bipartite(2, 3)) == (0, 2, 1, 3)
    # Vertex 0 lies on no cycle; source 1 closes 1-2-4-3 at vertex 4.
    assert _cycle(Graph(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])) == (1, 2, 4, 3)


def test_shortest_cycle_c6_with_chord():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    assert girth_brute(g) == 4
    # Source 0, vertex 2 with lower neighbors 1 and 3 (not 0-3-4-5 from vertex 4).
    assert _cycle(g) == (0, 1, 2, 3)


def test_girth_matches_per_edge_oracle(enumerated):
    for graphs in enumerated.values():
        for g in graphs:
            cyc = _cycle(g)
            assert (cyc and len(cyc)) == girth_brute(g)


def test_girth_matches_per_edge_oracle_off_bipartite():
    # Seeded random graphs, connected or not, so odd girths (2k + 1 from an
    # edge inside a distance shell) are compared with the oracle as well.
    rng = random.Random(10)
    odd = disconnected = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        p = rng.choice([0.1, 0.2, 0.35, 0.6])
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        odd += len(_assert_shortest_cycle(g) or ()) % 2
        disconnected += not connected_and_bipartite(g)[0]
    assert odd >= 300 and disconnected >= 300


def test_shortest_cycle_is_valid_cycle(enumerated):
    for graphs in enumerated.values():
        for g in graphs:
            cyc = _assert_shortest_cycle(g)
            # bipartite graphs only have even cycles
            if connected_and_bipartite(g)[1]:
                assert len(cyc or ()) % 2 == 0


def test_complete_bipartite_shape():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert connected_and_bipartite(g)[1]
    c5 = cycle_graph(5)
    assert sorted(map(c5.degree, c5.vertices())) == [2] * 5
