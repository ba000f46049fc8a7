"""Canonical labeling by iterated degree refinement plus backtracking.

The canonical form of a graph is the relabeling whose upper-triangle
adjacency bits (column-major, the graph6 bit order) are lexicographically
least over all labelings reachable from the refinement search tree.  Color
refinement is label-invariant, so two graphs receive equal codes exactly when
they are isomorphic.  Intended scale is n <= 16; enumeration workloads stay
at n <= 8.

The search skips subtrees that are automorphic images of subtrees already
explored (McKay 1981; McKay & Piperno, arXiv:1301.1493), which leaves the
minimum over the leaves unchanged.  Two leaves with equal codes a and b give
the automorphism x -> lab_b^-1(lab_a(x)); each leaf is compared with the
first leaf and the least leaf so far.  At a node whose individualized
vertices are P, a child v is skipped when an automorphism generated by the
stored ones that fix P pointwise maps an already explored child w to v.
Refinement and individualization are label-equivariant, so such a map
carries the subtree of w onto the subtree of v with equal leaf codes.
Refinement also keeps the order of cells, so a leaf's labeling determines the
path to it, and the automorphism maps the earlier leaf's path onto the new
one.  Where the two paths part, at node P with children w (earlier) and v,
the subtree of v is therefore the image of the finished subtree of w, and
the search returns to P at once.
"""

from __future__ import annotations

from .errors import SizeLimitError
from .graphs import Graph

MAX_CANON_VERTICES = 16


def _refine(neigh: tuple[tuple[int, ...], ...], colors: list[int]) -> list[int]:
    # Re-rank (color, sorted neighbor colors) signatures until stable.  Ranks
    # depend only on the multiset of signatures, never on vertex labels.
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in neigh[v]))) for v in range(len(colors))]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _triangle_positions(n: int) -> list[list[int]]:
    pos = [[0] * n for _ in range(n)]
    idx = 0
    for j in range(1, n):
        for i in range(j):
            pos[i][j] = pos[j][i] = idx
            idx += 1
    return pos


def _canonical_labeling(g: Graph) -> list[int]:
    """Map old vertex -> new label minimizing the triangle bit string."""
    n = g.n
    if n <= 1:
        return list(range(n))
    neigh = g._neigh
    pos = _triangle_positions(g.n)
    total = n * (n - 1) // 2
    # (bits, labeling, path) of the first leaf reached and of the least leaf
    # so far; a path is the sequence of individualized vertices.
    first: tuple[int, list[int], tuple[int, ...]] | None = None
    best: tuple[int, list[int], tuple[int, ...]] | None = None
    # Automorphisms found by equal leaf codes, as vertex maps x -> gen[x].
    generators: list[list[int]] = []

    def encode(colors: list[int]) -> int:
        bits = 0
        for u, v in g.edges:
            bits |= 1 << (total - 1 - pos[colors[u]][colors[v]])
        return bits

    def leaf(colors: list[int], path: tuple[int, ...]) -> int:
        """Record a leaf; return the depth at which the search resumes."""
        nonlocal first, best
        bits = encode(colors)
        if first is None:
            first = best = (bits, colors, path)
            return len(path)
        for ref_bits, ref, ref_path in (first, best):
            if bits == ref_bits:
                # Both labelings give the same graph, so ref^-1 . colors maps
                # the graph onto itself, and ref's path onto this one.
                inverse = [0] * n
                for v, c in enumerate(ref):
                    inverse[c] = v
                generators.append([inverse[c] for c in colors])
                common = 0
                while path[common] == ref_path[common]:
                    common += 1
                return common
        if bits < best[0]:
            best = (bits, colors, path)
        return len(path)

    def search(colors: list[int], fixed: tuple[int, ...]) -> int:
        """Search below the node that individualized `fixed`; return the
        depth at which the search resumes (< len(fixed) abandons this node)."""
        colors = _refine(neigh, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            return leaf(colors, fixed)
        # Orbits of the stored generators that fix `fixed` pointwise, as a
        # union-find forest extended only by generators found since the
        # previous child.
        orbit = list(range(n))
        used = 0

        def find(x: int) -> int:
            while orbit[x] != x:
                orbit[x] = orbit[orbit[x]]
                x = orbit[x]
            return x

        explored: list[int] = []
        for v in target:
            if explored:
                for gen in generators[used:]:
                    if all(gen[p] == p for p in fixed):
                        for x in range(n):
                            a, b = find(x), find(gen[x])
                            if a != b:
                                orbit[a] = b
                used = len(generators)
                root = find(v)
                if any(find(w) == root for w in explored):
                    continue
            explored.append(v)
            # Individualize v inside its cell, then re-rank so color values
            # stay label-invariant.
            sigs = [(colors[u], 0 if u == v else 1) for u in range(n)]
            rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
            resume = search([rank[s] for s in sigs], fixed + (v,))
            if resume < len(fixed):
                return resume
        return len(fixed)

    search([0] * n, ())
    return best[1]


def canonical_form(g: Graph) -> Graph:
    """The canonically relabeled representative of g's isomorphism class."""
    if g.n > MAX_CANON_VERTICES:
        raise SizeLimitError(f"canonical labeling supports n <= {MAX_CANON_VERTICES}, got {g.n}")
    lab = _canonical_labeling(g)
    return Graph(g.n, [(lab[u], lab[v]) for u, v in g.edges])


def canonical_code(g: Graph) -> bytes:
    """Byte string identifying g's isomorphism class (its canonical graph6)."""
    from .formats import to_graph6

    return to_graph6(canonical_form(g)).encode("ascii")


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_code(g) == canonical_code(h)
