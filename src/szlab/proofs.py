"""Pair surpluses and the block-level decomposition of the Szeged-Wiener gap.

The surplus of a vertex pair {x, y} is the number of edges whose distance
partition separates x from y, minus d(x, y).  Surpluses are non-negative on
every connected graph (each edge of a shortest x-y path separates the pair),
and they sum to Sz - W.  For connected bipartite graphs with m >= n the gap
decomposes over the block structure:

  * pairs inside one block contribute at least 4*size - 8 when the block has
    size >= 4 and exactly 0 when it is a bridge;
  * pairs joining the designated large block to another block contribute at
    least n_1 * (n_i - 1) per block;
  * all remaining pairs contribute >= 0.

Those three groups partition the vertex pairs, so the subtotals reconcile
exactly with Sz - W, which is how the lower bound 4n - 8 is verified here.
The floors rest on two lemmas, checked on every block with >= 4 vertices:
every pair inside the block has surplus >= 1, and every edge of the block's
shortest cycle v_1..v_p separates each antipodal pair (v_i, v_{i+p/2}),
which therefore has >= p separating edges and surplus >= p/2.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import count, repeat
from typing import Iterator, NamedTuple, Sequence

from .errors import HypothesisError, ensure
from .graphs import (
    BlockDecomposition,
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    bfs_forest,
    block_decomposition,
    connected_and_bipartite,
    shortest_cycle,
)
from .invariants import edge_partitions, side_masks, wiener


class SurplusMap(NamedTuple):
    """Per-pair surpluses, separating-edge counts minus distances; their total equals Sz - W.

    `surpluses` runs in pair order (0, 1), (0, 2), ..., (n - 2, n - 1), that of
    `itertools.combinations(range(n), 2)`; `surplus(x, y)` finds a pair by its
    index.  `sides[x]` is x's masks (A_x, B_x) over `edges`, the graph's sorted
    edges, which `invariants.side_masks` reads off their packed differences.
    """

    n: int
    surpluses: list[int]
    total: int
    dist: DistanceMatrix
    edges: tuple[tuple[int, int], ...]
    sides: list[tuple[int, int]]

    def separating(self, x: int, y: int) -> int:
        """Edge-index mask (bit i for edges[i]) of the edges putting x and y on opposite sides."""
        (ax, bx), (ay, by) = self.sides[x], self.sides[y]
        return (ax & by) | (bx & ay)

    def surplus(self, x: int, y: int) -> int:
        if x == y or not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"({x}, {y}) is not a pair of distinct vertices of 0..{self.n - 1}")
        if x > y:
            x, y = y, x
        # Rows 0..x-1 hold (n - 1) + ... + (n - x) pairs before row x's.
        return self.surpluses[x * (2 * self.n - x - 1) // 2 + y - x - 1]

    def histogram(self) -> Counter:
        return Counter(self.surpluses)


def surplus_map(g: Graph) -> SurplusMap:
    """Every pair's surplus, the popcount of (A_x & B_y) | (B_x & A_y) minus d(x, y).

    all_pairs_distances raises DisconnectedGraphError on a disconnected graph.
    """
    dist = all_pairs_distances(g)
    sides = side_masks(g, dist)
    surpluses = [
        ((ax & by) | (bx & ay)).bit_count() - d
        for x, (ax, bx) in enumerate(sides)
        for (ay, by), d in zip(sides[x + 1 :], dist.row(x)[x + 1 :])
    ]
    total = sum(surpluses)
    # Per-edge route, which checks the masks' transpose and the pair loop: partition
    # products, popcounts of the same packed differences, minus the distance sum.
    szeged = sum(p.n_u * p.n_v for p in edge_partitions(g, dist))
    ensure(total == szeged - wiener(dist), "pair surpluses do not sum to Sz - W")
    return SurplusMap(g.n, surpluses, total, dist, g.edges, sides)


class GapDecomposition(NamedTuple):
    """The gap Sz - W split over vertex-pair categories tied to blocks.

    The block-cut tree rooted at the designated block is two arrays: `gate[i]`,
    block i's one vertex nearest the designated block (-1 for that block), and
    `home[v]`, the one block holding v other than as its gate.  `within_block[i]`
    sums surpluses of pairs whose unique common block is block i, `cross_root[i]`
    those of pairs joining the designated block to a vertex homed at block i,
    and `cross_other` those of pairs sharing no block and missing the designated one.
    """

    graph: Graph
    blocks: BlockDecomposition
    root_block: int
    within_block: tuple[int, ...]
    cross_root: dict[int, int]
    cross_other: int
    total: int
    surplus: SurplusMap
    home: list[int]
    gate: list[int]
    cross_pair_floor_ok: bool
    cross_witness_ok: bool

    @property
    def bound(self) -> int:
        return 4 * self.graph.n - 8

    def to_json_dict(self) -> dict:
        sizes = self.blocks.block_sizes
        blocks = []
        for i, verts in enumerate(self.blocks.blocks):
            within, floor = self.within_block[i], _within_floor(sizes[i])
            entry: dict = {
                "index": i,
                "size": sizes[i],
                "vertices": sorted(verts),
                "designated": i == self.root_block,
                "within_surplus": within,
                "within_floor": floor,
                "within_slack": within - floor,
            }
            if i != self.root_block:
                cross, floor = self.cross_root.get(i, 0), _cross_floor(sizes[self.root_block], sizes[i])
                entry.update(cross_surplus=cross, cross_floor=floor, cross_slack=cross - floor)
            blocks.append(entry)
        return {
            "schema": 1,
            "n": self.graph.n,
            "m": self.graph.m,
            "gap": self.total,
            "bound": self.bound,
            "designated_block": self.root_block,
            "blocks": blocks,
            "cross_other": self.cross_other,
            "surplus_histogram": {str(k): v for k, v in sorted(self.surplus.histogram().items())},
            "cross_pair_floor_ok": self.cross_pair_floor_ok,
            "cross_witness_ok": self.cross_witness_ok,
        }

    def by_row(self) -> Iterator[tuple[int, Sequence[int], list[int], list[tuple]]]:
        """Per x < n - 1: x, dist.row(x)[x + 1 :], and the surpluses and categories of the pairs (x, y), y > x."""
        return _by_row(self.surplus, self.home, self.gate, self.root_block)

    def pair_rows(self) -> Iterator[tuple[int, int, int, int, tuple]]:
        """(x, y, distance, surplus, category) for every pair x < y, in order."""
        for x, *row in self.by_row():
            yield from zip(repeat(x), count(x + 1), *row)


# The floors of the module docstring, as gap_decomposition checks them and to_json_dict reports them.
def _within_floor(size: int) -> int:
    return 4 * size - 8 if size >= 4 else 0


def _cross_floor(root_size: int, size: int) -> int:
    return root_size * (size - 1)


def _by_row(smap: SurplusMap, home: list[int], gate: list[int], root: int) -> Iterator[tuple]:
    """GapDecomposition.by_row, each pair's category read off the rooted block-cut tree.

    x and y share block h when both are homed at h, or one is h's gate and the other is
    homed at h.  Otherwise a pair touching the designated block `root` is ("cross_root",
    the other end's home), and any other pair ("cross_other", (home[x], home[y])).
    """
    end = 0
    for x in range(smap.n - 1):
        hx = home[x]
        # Block h's category for the pairs (x, y) with y homed at h.
        by_home = [
            ("within", h) if h == hx or w == x else ("cross_root", h) if hx == root
            else ("cross_root", hx) if h == root else ("cross_other", (hx, h))
            for h, w in enumerate(gate)
        ]
        categories = [by_home[h] for h in home[x + 1 :]]
        if gate[hx] > x:  # x's home holds its gate too
            categories[gate[hx] - x - 1] = by_home[hx]
        start, end = end, end + len(categories)
        yield x, smap.dist.row(x)[x + 1 :], smap.surpluses[start:end], categories


def gap_decomposition(g: Graph) -> GapDecomposition:
    """Decompose Sz - W over block categories and check every lower bound.

    Hypotheses: connected, bipartite, m >= n.  Pairs sharing a block belong
    to that (unique) block; remaining pairs attach to the designated block's
    category when one endpoint lies in it.  Pairs whose designated-side
    endpoint is the connecting cut vertex carry surplus >= 0 and are kept in
    the designated category so the categories partition all pairs exactly.

    The categories are read off the block-cut tree rooted at the designated
    block (Hopcroft and Tarjan, 1973), as gates and homes (see GapDecomposition);
    one distance row, from a vertex of the designated block, gives every gate.
    A block's root gate, the designated block's vertex on its path, is its
    gate when that is homed there, else its parent's (its gate's home's).

    The designated block is the largest block, ties going to the least sorted
    vertex list: which tied block is designated, and with it the categories,
    depends on the input's labeling; the gap and floors do not.

    After the floors, both lemmas of the module docstring are checked on
    every block with >= 4 vertices, off the same surplus map and its side masks.
    """
    forest = bfs_forest(g)
    connected, bipartite = connected_and_bipartite(g, forest)
    if not connected:
        raise HypothesisError("connected violated")
    if not bipartite:
        raise HypothesisError("bipartite violated")
    if g.m < g.n:
        raise HypothesisError("m >= n violated")

    smap = surplus_map(g)
    decomp = block_decomposition(g, forest[1])
    sizes = decomp.block_sizes
    big = [i for i in range(decomp.k) if sizes[i] >= 4]
    # m >= n forces a cycle, and bipartite blocks with a cycle have >= 4 vertices.
    ensure(bool(big), "no block of size >= 4 under m >= n and bipartite hypotheses")
    # Blocks run in sorted vertex list order, and max keeps the first of a tie.
    root = max(big, key=sizes.__getitem__)

    # A tie (only a broken decomposition has one) goes to the least vertex, so two
    # blocks sharing two vertices home one of them twice.
    depth = smap.dist.row(min(decomp.blocks[root]))
    gate = [-1 if i == root else min(b, key=lambda v: (depth[v], v)) for i, b in enumerate(decomp.blocks)]
    homed = sorted((v, i) for i, b in enumerate(decomp.blocks) for v in b if v != gate[i])
    ensure(len(dict(homed)) == len(homed), "a pair shares two blocks")
    ensure(len(homed) == g.n, "pair categories do not cover every pair")
    home = [i for _, i in homed]
    root_gate = gate[:]  # parents first, by gate depth
    for i in sorted((i for i in range(decomp.k) if i != root), key=lambda i: depth[gate[i]]):
        if home[gate[i]] != root:
            root_gate[i] = root_gate[home[gate[i]]]

    within = [0] * decomp.k
    cross_root: dict[int, int] = {i: 0 for i in range(decomp.k) if i != root}
    cross_other = 0
    # A cross pair whose designated-side end is not its far block's root gate has
    # surplus >= 1, and each far vertex has such a partner with surplus >= 2.
    floor_ok = True
    witnessed: set[int] = set()
    # Each block's least within-block surplus and a pair attaining it.
    least: dict[int, tuple[int, tuple[int, int]]] = {}
    for x, _, surpluses, categories in _by_row(smap, home, gate, root):
        for y, s, (kind, b) in zip(count(x + 1), surpluses, categories):
            if kind == "within":
                within[b] += s
                if b not in least or s < least[b][0]:
                    least[b] = s, (x, y)
            elif kind == "cross_root":
                cross_root[b] += s
                near, far = (x, y) if home[x] == root else (y, x)
                if near != root_gate[b]:
                    floor_ok = floor_ok and s >= 1
                    if s >= 2:
                        witnessed.add(far)
            else:
                cross_other += s

    total = sum(within) + sum(cross_root.values()) + cross_other
    ensure(total == smap.total, "category subtotals do not reconcile with Sz - W")

    for i in range(decomp.k):
        if sizes[i] >= 4:
            ensure(within[i] >= _within_floor(sizes[i]), f"block {i}: within surplus below 4n_i - 8")
        else:
            ensure(sizes[i] == 2 and within[i] == 0, f"bridge block {i} with nonzero surplus")
    for i, sub in cross_root.items():
        ensure(sub >= _cross_floor(sizes[root], sizes[i]), f"block {i}: cross surplus below n_1(n_i - 1)")
    ensure(cross_other >= 0, "negative cross-other surplus")
    for i in big:
        s, pair = least[i]
        ensure(s >= 1, f"block {i}: pair {pair} has surplus {s}, below 1")
        _check_antipodal_pairs(g, i, decomp.blocks[i], smap)

    return GapDecomposition(
        g, decomp, root, tuple(within), cross_root, cross_other, total, smap, home, gate,
        floor_ok, len(witnessed) == g.n - sizes[root],
    )


def _check_antipodal_pairs(g: Graph, i: int, block: frozenset[int], smap: SurplusMap) -> None:
    """Every edge of block i's shortest cycle (shortest_cycle's tie-break) separates each antipodal pair.

    The p cycle edges are distinct, so the pair then has >= p separating edges;
    beyond that only its surplus >= p/2 is checked, since edges off the cycle
    may separate the pair as well.
    """
    # A block is isometric: a shortest path between two of its vertices stays inside it.
    verts = shortest_cycle(g, {s: smap.dist.row(s) for s in block}, sorted(block))
    p, half = len(verts), len(verts) // 2
    ensure(p % 2 == 0, f"block {i}: odd shortest cycle in a bipartite graph")
    edges = smap.edges  # sorted, so an edge's index is its bisection point
    cycle_mask = 0
    for a, b in zip(verts, verts[1:] + verts[:1]):
        cycle_mask |= 1 << bisect_left(edges, (a, b) if a < b else (b, a))
    for x, y in zip(verts, verts[half:]):
        pair = (x, y) if x < y else (y, x)
        unseparated = cycle_mask & ~smap.separating(x, y)
        missed = [edges[j] for j in range(unseparated.bit_length()) if unseparated >> j & 1]
        ensure(not missed, f"block {i}: cycle edges {missed} do not separate antipodal pair {pair}")
        ensure(smap.surplus(x, y) >= half, f"block {i}: antipodal pair {pair} surplus below p/2")
