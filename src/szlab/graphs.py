"""Immutable simple undirected graphs and the structural queries built on them.

Vertices are integers 0..n-1.  Adjacency is kept both as sorted neighbor
tuples (for iteration) and as per-vertex integer bitmasks (for O(1) adjacency
tests and fast BFS); Python integers are arbitrary precision, so the bitmask
path works for every graph size this package targets.
"""

from __future__ import annotations

from collections import Counter
from struct import Struct
from typing import Iterable, Iterator, NamedTuple

from .errors import DisconnectedGraphError, GraphConstructionError, SizeLimitError, ensure


class Graph:
    """Simple undirected graph, immutable after construction.

    Duplicate edges are collapsed; loops and out-of-range endpoints are
    rejected.  Equality and hashing are by labeled edge set, not by
    isomorphism class (see canon.canonical_code for the latter).
    """

    __slots__ = ("n", "m", "edges", "_neigh", "_mask")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphConstructionError(f"vertex count must be non-negative, got {n}")
        edge_set = set()
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphConstructionError(f"vertex out of range 0..{n - 1}: ({u}, {v})")
            if u == v:
                raise GraphConstructionError(f"loop edge at vertex {u}")
            edge_set.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(edge_set))
        self.m = len(self.edges)
        mask = [0] * n
        neigh = [[] for _ in range(n)]
        for u, v in self.edges:
            mask[u] |= 1 << v
            mask[v] |= 1 << u
            neigh[u].append(v)
            neigh[v].append(u)
        self._mask = tuple(mask)
        # Sorted edges append each vertex's lower neighbors, then its higher ones, both ascending.
        self._neigh = tuple(map(tuple, neigh))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neigh[v]

    def degree(self, v: int) -> int:
        return len(self._neigh[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._mask[u] >> v & 1)

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def cycle_graph(p: int) -> Graph:
    return Graph(p, [(i, (i + 1) % p) for i in range(p)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with side A on vertices 0..a-1."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _find(parent: list[int], i: int) -> int:
    """The root of i in a union-find forest, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _field_width(n: int) -> int:
    """Bytes per distance field: d(v, w) <= n - 1 fits one byte up to n = 256."""
    return 1 if n <= 256 else 2


class DistanceMatrix:
    """A connected graph's hop counts, one packed integer per vertex: field w of packed[v] is d(v, w).

    A field is `width` bytes, little-endian: one byte for n <= 256, two above
    (so n is at most 65,536).  `ones` has every field 1.  `rows` is every row,
    decoded on first use.  Only all_pairs_distances builds one, and it holds n to that limit.
    """

    __slots__ = ("n", "width", "ones", "packed", "_codec", "_rows")

    def __init__(self, n: int, packed: list[int]):
        self.n, self.packed, self._rows = n, packed, None
        self.width = _field_width(n)
        self.ones = int.from_bytes((b"\x01" + bytes(self.width - 1)) * n, "little")
        self._codec = Struct(f"<{n}{'BH'[self.width - 1]}")

    def row(self, v: int) -> tuple[int, ...]:
        return self._codec.unpack(self.packed[v].to_bytes(self._codec.size, "little"))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        if self._rows is None:
            self._rows = tuple(map(self.row, range(self.n)))
        return self._rows


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Grow every vertex's ball at once: ball_v[k+1] = ball_v[k] | OR of ball_u[k], u ~ v.

    A ball is held in DistanceMatrix's field layout, field w 1 when w is inside, so round k
    adds k times the gain of ball_v, the vertices at distance k, to packed[v].  A ball that
    stops growing is v's component; only vertices whose ball grew go on.  Raises
    DisconnectedGraphError when a ball stops short of every vertex (the null graph passes),
    and SizeLimitError first above 65,536 vertices, where a distance overflows its field.
    """
    if g.n > 65_536:
        raise SizeLimitError(f"packed distances support n <= 65,536, got {g.n}")
    neigh = g._neigh
    ball = [1 << 8 * _field_width(g.n) * v for v in g.vertices()]
    packed = [0] * g.n
    active = [v for v in g.vertices() if neigh[v]]
    step = 0
    while active:
        step += 1
        grown = []
        for v in active:
            b = ball[v]
            for u in neigh[v]:
                b |= ball[u]
            if b != ball[v]:
                grown.append((v, b))
        for v, b in grown:
            packed[v] += step * (b - ball[v])
            ball[v] = b
        active = [v for v, _ in grown]
    dist = DistanceMatrix(g.n, packed)
    if any(b != dist.ones for b in ball):
        raise DisconnectedGraphError("invariant requires a connected graph")
    return dist


def _distances_from(g: Graph, s: int) -> list[int]:
    """Hop counts from s by frontier-at-a-time BFS over adjacency bitmasks; -1 when unreachable."""
    dist = [-1] * g.n
    dist[s] = 0
    seen = frontier = 1 << s
    step = 0
    while frontier:
        step += 1
        nxt = 0
        for v in _bits(frontier):
            nxt |= g._mask[v]
        frontier = nxt & ~seen
        seen |= frontier
        for v in _bits(frontier):
            dist[v] = step
    return dist


def bfs_forest(g: Graph) -> tuple[list[int], list[int]]:
    """For each vertex, the smallest vertex of its component and the hop count from that vertex."""
    root, depth = [-1] * g.n, [-1] * g.n
    for s in g.vertices():
        if root[s] == -1:
            for v, d in enumerate(_distances_from(g, s)):
                if d >= 0:
                    root[v], depth[v] = s, d
    return root, depth


def connected_and_bipartite(g: Graph) -> tuple[bool, bool]:
    """Whether g is connected, and whether it is bipartite, from one BFS forest.

    Connected when there is a vertex and every component root is vertex 0
    (the null graph is not connected, as in networkx); bipartite when every
    edge joins BFS depths of opposite parity.
    """
    root, depth = bfs_forest(g)
    return g.n > 0 and not any(root), all((depth[u] ^ depth[v]) & 1 for u, v in g.edges)


class BlockDecomposition(NamedTuple):
    """Blocks (maximal 2-connected subgraphs or bridges) and cut vertices.

    Blocks are ordered by their sorted vertex tuples so reports are
    deterministic.  Every edge belongs to exactly one block, and for a
    connected graph the block sizes satisfy sum(n_i) = n + k - 1.
    """

    blocks: tuple[frozenset[int], ...]
    block_edges: tuple[frozenset[tuple[int, int]], ...]
    cut_vertices: frozenset[int]

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Blocks as the classes of edges sharing a fundamental cycle of the BFS tree from vertex 0.

    Each non-tree edge is unioned with the tree edges (v to up[v], v's smallest
    neighbor one level up) on the two tree paths from its ends to where they
    meet.  A fundamental cycle is simple, so each class lies in one block.  A
    simple cycle is the sum mod 2 of the fundamental cycles of its non-tree
    edges, so its part inside any one class has even degree at every vertex
    and is either empty or the whole cycle: edges sharing a simple cycle share
    a class.  The classes are thus the blocks, and the cut vertices are the
    vertices in two or more blocks.  The walks cost O(m * depth), not a DFS's
    O(n + m); the callers go on to build an O(n^2) surplus map.  Raises on
    disconnected input.
    """
    depth = _distances_from(g, 0) if g.n else []
    if -1 in depth:
        raise DisconnectedGraphError("block decomposition requires a connected graph")
    if not g.m:  # connected with no edge: at most one vertex, so no block
        return BlockDecomposition((), (), frozenset())
    # up[0] = 0; every other vertex v names its tree edge (v, up[v]) in the union-find.
    up = [next(w for w in g._neigh[v] if depth[w] < depth[v]) if depth[v] else v for v in g.vertices()]
    leader = list(g.vertices())
    for u, v in g.edges:
        if up[u] != v and up[v] != u:
            r = _find(leader, u)
            # Step the deeper end up, unioning the edge it leaves, until the ends meet.
            while u != v:
                if depth[u] < depth[v]:
                    u, v = v, u
                leader[_find(leader, u)] = r
                u = up[u]
    groups: dict[int, list[tuple[int, int]]] = {}
    for u, v in g.edges:
        groups.setdefault(_find(leader, v if up[v] == u else u), []).append((u, v))
    # Blocks share at most one vertex, so no two sorted vertex lists are equal.
    indexed = sorted((sorted({x for e in es for x in e}), es) for es in groups.values())
    blocks = tuple(frozenset(verts) for verts, _ in indexed)
    cuts = frozenset(v for v, c in Counter(v for b in blocks for v in b).items() if c > 1)
    decomp = BlockDecomposition(blocks, tuple(frozenset(es) for _, es in indexed), cuts)
    ensure(sum(decomp.block_sizes) == g.n + decomp.k - 1, "block sizes break sum(n_i) = n + k - 1")
    return decomp


def shortest_cycle(g: Graph, rows) -> tuple[int, ...] | None:
    """A shortest cycle as a cyclically ordered vertex tuple, or None for forests.

    One scan of each source's distance row: a vertex at distance k with two
    neighbors at k - 1 closes a walk of length 2k, and an edge inside shell k
    one of 2k + 1; shells that cannot beat the best closing are skipped.  The
    cycle is the best closing's two descents to its source, each stepping to
    the least neighbor one shell down.  Ties go to the least source, then the
    least vertex and its least two lower neighbors.  At the least length the
    descents meet only at the source, or a shorter cycle would exist, so the
    result is simple.  `rows` are g's distance rows; a vertex a source cannot
    reach may read -1 there, which the scan never takes for a shell.
    """
    neigh = g._neigh
    best, closing = 2 * g.n, None  # longer than any closing
    for s, dist in enumerate(rows):
        for v, k in enumerate(dist):
            if 0 < k and 2 * k < best:
                near = [dist[w] for w in neigh[v]]
                if near.count(k - 1) > 1:
                    a, b = [w for w, d in zip(neigh[v], near) if d < k][:2]
                    best, closing = 2 * k, (s, a, [v], b)
                elif 2 * k + 1 < best and k in near:
                    best, closing = 2 * k + 1, (s, v, [], neigh[v][near.index(k)])
    if closing is None:
        return None
    s, x, middle, y = closing
    dist = rows[s]

    def descent(v: int) -> list[int]:
        path = [v]
        for k in range(dist[v] - 1, -1, -1):
            path.append(next(w for w in neigh[path[-1]] if dist[w] == k))
        return path

    cycle = descent(x)[::-1] + middle + descent(y)[:-1]
    ensure(len(set(cycle)) == best, f"the descents of a closing of length {best} meet before its source")
    return tuple(cycle)
