"""The family attaining Sz - W = 4n - 8: a 4-cycle plus a hanging tree.

Every member is a 4-cycle and a tree on n - 3 vertices sharing exactly one
vertex (n = 4 degenerates to the bare 4-cycle).  Members are enumerated one
per isomorphism class by generating rooted trees isomorph-free and gluing
each root onto one cycle vertex.
"""

from __future__ import annotations

from typing import NamedTuple

from .canon import _check_canon_size, canonical_code
from .errors import GraphConstructionError, InvariantViolation, ensure
from .graphs import Graph, bfs_forest, block_decomposition
from .invariants import gap


def rooted_trees(k: int) -> list[tuple[int | None, ...]]:
    """All rooted trees on k vertices, one per rooted-isomorphism class, as parent tuples.

    A tree's vertices are in preorder, and parent[0] is None (the root).
    Canonical level-sequence successor generation: a tree is encoded by the
    depths of its vertices in preorder with subtrees ordered so the sequence
    is lexicographically maximal; successive sequences are produced directly,
    so no deduplication pass is needed.
    """
    if k < 1:
        raise GraphConstructionError(f"rooted trees need k >= 1, got {k}")
    levels = list(range(1, k + 1))
    out = []
    while True:
        # A vertex's parent is the last vertex seen one level up.
        last: list[int | None] = [None] * (k + 1)
        parent = []
        for i, level in enumerate(levels):
            parent.append(last[level - 1])
            last[level] = i
        out.append(tuple(parent))
        # Find the last vertex deeper than level 2; the star is the fixpoint.
        p = max((i for i in range(k) if levels[i] > 2), default=None)
        if p is None:
            return out
        # Repeat the segment starting at p's parent until length k.
        seg = levels[parent[p]:p]
        for i in range(p, k):
            levels[i] = seg[(i - p) % len(seg)]


def rooted_tree_count(k: int) -> int:
    """OEIS A000081(k), the number of rooted trees on k vertices, by the Cayley/Otter
    recurrence a(m + 1) = (1/m) sum_{j=1..m} (sum_{d | j} d a(d)) a(m - j + 1)."""
    if k < 1:
        raise GraphConstructionError(f"rooted trees need k >= 1, got {k}")
    a = [0, 1]
    for m in range(1, k):
        weights = [sum(d * a[d] for d in range(1, j + 1) if j % d == 0) for j in range(m + 1)]
        a.append(sum(weights[j] * a[m - j + 1] for j in range(1, m + 1)) // m)
    return a[k]


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
    _check_canon_size(n)  # every member is canonized: refuse before building the A000081(n - 3) trees
    members = []
    seen = set()
    for parent in rooted_trees(n - 3):
        # Cycle on 0..3; the tree root is identified with vertex 0 and tree
        # vertex i > 0 becomes i + 3.
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        edges.extend((p + 3 if p else 0, i + 3) for i, p in enumerate(parent) if p is not None)
        g = Graph(n, edges)
        if not is_extremal_form(g, bfs_forest(g)):
            raise InvariantViolation(f"member {g.edges} is not a 4-cycle plus a hanging tree")
        code = canonical_code(g).decode("ascii")
        if code in seen:
            raise InvariantViolation(f"distinct rooted trees produced isomorphic members: {code}")
        seen.add(code)
        members.append(ExtremalGraph(g, code))
    return members


def is_extremal_form(g: Graph, forest: tuple[list[int], list[int]]) -> bool:
    """Recognize the family shape: connected, m = n, and a 4-vertex cycle block with <= 1 cut vertex.

    `forest` is `bfs_forest(g)`, which the caller already holds.  On a
    connected graph with m = n the cycle is the one block with more than
    2 vertices, and a 4-cycle already makes the graph bipartite.
    """
    if g.m != g.n:
        return False
    root, depth = forest
    if any(root):
        return False
    decomp = block_decomposition(g, depth)
    cycles = [b for b in decomp.blocks if len(b) > 2]
    return len(cycles) == 1 and len(cycles[0]) == 4 and len(cycles[0] & decomp.cut_vertices) <= 1


def family_row(n: int) -> dict:
    """The family for n as sorted canonical codes, after checking that every gap is 4n - 8."""
    members = extremal_family(n)
    gaps_ok = all(gap(m.graph) == 4 * n - 8 for m in members)
    ensure(gaps_ok, f"a family member on {n} vertices has a gap other than 4n - 8")
    codes = sorted(m.canonical for m in members)
    return {"n": n, "count": len(codes), "members": codes, "all_gaps_equal_4n_minus_8": True}
