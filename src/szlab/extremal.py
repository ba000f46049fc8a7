"""The family attaining Sz - W = 4n - 8: a 4-cycle plus a hanging tree.

Every member is a 4-cycle and a tree on n - 3 vertices sharing exactly one
vertex (n = 4 degenerates to the bare 4-cycle).  Members are enumerated one
per isomorphism class by generating rooted trees isomorph-free and gluing
each root onto one cycle vertex.
"""

from __future__ import annotations

from typing import NamedTuple

from .canon import canonical_code
from .errors import DisconnectedGraphError, GraphConstructionError, InvariantViolation, ensure
from .graphs import Graph, block_decomposition
from .invariants import gap


class RootedTree(NamedTuple):
    """Tree in preorder with parent pointers; parent[0] is None (the root)."""

    size: int
    parent: tuple[int | None, ...]

    def edges(self) -> list[tuple[int, int]]:
        return [(p, i) for i, p in enumerate(self.parent) if p is not None]


def rooted_trees(k: int) -> list[RootedTree]:
    """All rooted trees on k vertices, one per rooted-isomorphism class.

    Canonical level-sequence successor generation: a tree is encoded by the
    depths of its vertices in preorder with subtrees ordered so the sequence
    is lexicographically maximal; successive sequences are produced directly,
    so no deduplication pass is needed.
    """
    if k < 1:
        raise GraphConstructionError(f"rooted trees need k >= 1, got {k}")
    if k == 1:
        return [RootedTree(1, (None,))]
    levels = list(range(1, k + 1))
    out = []
    while True:
        out.append(_tree_from_levels(levels))
        # Find the last vertex deeper than level 2; the star is the fixpoint.
        p = max((i for i in range(k) if levels[i] > 2), default=None)
        if p is None:
            return out
        q = max(i for i in range(p) if levels[i] == levels[p] - 1)
        # Repeat the segment starting at the new parent until length k.
        seg = levels[q:p]
        for i in range(p, k):
            levels[i] = seg[(i - p) % len(seg)]


def rooted_tree_count(k: int) -> int:
    """OEIS A000081(k), the number of rooted trees on k vertices, by the Cayley/Otter
    recurrence a(m + 1) = (1/m) sum_{j=1..m} (sum_{d | j} d a(d)) a(m - j + 1)."""
    a = [0, 1]
    for m in range(1, k):
        weights = [sum(d * a[d] for d in range(1, j + 1) if j % d == 0) for j in range(m + 1)]
        a.append(sum(weights[j] * a[m - j + 1] for j in range(1, m + 1)) // m)
    return a[k]


def _tree_from_levels(levels: list[int]) -> RootedTree:
    parent: list[int | None] = [None] * len(levels)
    for i in range(1, len(levels)):
        for j in range(i - 1, -1, -1):
            if levels[j] == levels[i] - 1:
                parent[i] = j
                break
    return RootedTree(len(levels), tuple(parent))


class ExtremalGraph(NamedTuple):
    """A family member and its canonical graph6 code (see canon.canonical_code).

    The 4-cycle is on vertices 0..3, and the tree hangs from vertex 0.
    """

    graph: Graph
    canonical: str


def extremal_family(n: int) -> list[ExtremalGraph]:
    """One member per isomorphism class, built from rooted trees on n - 3 vertices."""
    if n < 4:
        raise GraphConstructionError(f"family members need n >= 4, got {n}")
    members = []
    seen = set()
    for tree in rooted_trees(n - 3):
        # Cycle on 0..3; the tree root is identified with vertex 0 and its
        # remaining vertices become 4..n-1.
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        relabel = lambda t: 0 if t == 0 else t + 3
        edges.extend((relabel(p), relabel(c)) for p, c in tree.edges())
        g = Graph(n, edges)
        if not is_extremal_form(g):
            raise InvariantViolation(f"member {g.edges} is not a 4-cycle plus a hanging tree")
        code = canonical_code(g).decode("ascii")
        if code in seen:
            raise InvariantViolation(f"distinct rooted trees produced isomorphic members: {code}")
        seen.add(code)
        members.append(ExtremalGraph(g, code))
    return members


def is_extremal_form(g: Graph) -> bool:
    """Recognize the family shape: connected, m = n, and a 4-vertex cycle block with <= 1 cut vertex.

    On a connected graph with m = n the cycle is the one block with more than
    2 vertices, and a 4-cycle already makes the graph bipartite.
    """
    if g.m != g.n:
        return False
    try:
        decomp = block_decomposition(g)
    except DisconnectedGraphError:
        return False
    cycles = [b for b in decomp.blocks if len(b) > 2]
    return len(cycles) == 1 and len(cycles[0]) == 4 and len(cycles[0] & decomp.cut_vertices) <= 1


def family_row(n: int) -> dict:
    """The family for n as sorted canonical codes, after checking that every gap is 4n - 8."""
    members = extremal_family(n)
    gaps_ok = all(gap(m.graph) == 4 * n - 8 for m in members)
    ensure(gaps_ok, f"a family member on {n} vertices has a gap other than 4n - 8")
    codes = sorted(m.canonical for m in members)
    return {"n": n, "count": len(codes), "members": codes, "all_gaps_equal_4n_minus_8": True}
