"""Canonical labeling by iterated degree refinement plus backtracking.

The canonical form of a graph is the relabeling whose adjacency bits, read in
graph6's pair order (`formats._pair_bit`, first pair most significant), are
least over all labelings reachable from the refinement search tree, so its
graph6 is the least code the search reaches.  Refinement is label-invariant:
graphs get equal codes exactly when they are isomorphic, and a form is its
own form.  Intended scale is n <= 16; enumeration workloads stay at n <= 12.

Colors are always dense ranks 0..k-1.  A refinement round ranks (color,
sorted neighbor colors) signatures, which lead with the color, so a round
only splits cells: k distinct signatures mean that no cell split and that the
re-rank changes nothing, so refinement stops there, or at once when k = n.
Individualizing v in cell c ranks (color, v or not) pairs, which over dense
colors keeps v at c and moves every other vertex of color c or more up one,
so the search shifts colors instead of sorting pairs.

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

The same search yields Aut(G).  `canonical_form` returns a `CanonicalForm`
whose `generators` are the stored automorphisms carried into canonical
labels (lab . gen . lab^-1, so each maps the form onto itself) and whose
`group_order` is |Aut(G)|.  Let P_0, P_1, ... be the nodes of the first
path, w_d the first child of P_d, and Aut_P the automorphisms fixing P
pointwise.  Orbit-stabilizer gives
|Aut_P_d| = |orbit of w_d under Aut_P_d| * |Aut_P_d+1|, and Aut_P is trivial
at the leaf, whose colors are all distinct, so |Aut(G)| is the product of
those orbit sizes, each read off as the orbit of w_d under the stored
generators that fix P_d.  Those orbits are complete (McKay 1981).  A
first-path node is never abandoned: every leaf met inside its subtree shares
P_d with the first leaf, so a return stops at P_d or below.  Every map
stored there carries one path through P_d onto another, so it fixes P_d.
And every child v in the true orbit of w_d has a leaf with the first leaf's
code below it; the search of v is either skipped, because stored maps
already join v to an explored child, or meets such a leaf, in its own
subtree or in the image of a pruned one, and stores a map carrying w_d to v.
So the generators span Aut(G): an automorphism fixing P_d agrees on w_d with
a product of stored maps fixing P_d, and the quotient fixes P_d+1.
"""

from __future__ import annotations

from .errors import SizeLimitError
from .formats import _pair_bit, to_graph6
from .graphs import Graph

MAX_CANON_VERTICES = 16


def _refine(neigh: tuple[tuple[int, ...], ...], colors: list[int]) -> list[int]:
    # Re-rank signatures until stable, as the module docstring describes.
    k = max(colors) + 1
    while k < len(colors):
        sigs = [(c, tuple(sorted(map(colors.__getitem__, nb)))) for c, nb in zip(colors, neigh)]
        distinct = set(sigs)
        if len(distinct) == k:
            break
        k = len(distinct)
        rank = {s: i for i, s in enumerate(sorted(distinct))}
        colors = [rank[s] for s in sigs]
    return colors


class CanonicalForm(Graph):
    """A canonically labeled graph with generators of its automorphism group
    (vertex maps x -> gen[x] in the form's own labels) and the group's order.
    Only `labeled_form` constructs one, so its graph6 is its class's code."""

    __slots__ = ("generators", "group_order")

    def __init__(self, n: int, pairs, generators: list[list[int]], group_order: int):
        super().__init__(n, pairs)
        self.generators, self.group_order = generators, group_order


def _canonical_labeling(g: Graph) -> tuple[list[int], list[list[int]], int]:
    """Map old vertex -> new label minimizing the triangle bit string, the
    stored automorphism generators in new labels, and |Aut(g)|."""
    n = g.n
    if n <= 1:
        return list(range(n)), [], 1
    neigh = g._neigh
    # The first pair in graph6 order is the most significant bit.
    top = n * (n - 1) // 2 - 1
    # (bits, labeling, path) of the first leaf reached and of the least leaf
    # so far; a path is the sequence of individualized vertices.
    first: tuple[int, list[int], tuple[int, ...]] | None = None
    best: tuple[int, list[int], tuple[int, ...]] | None = None
    # Automorphisms found by equal leaf codes, as vertex maps x -> gen[x].
    generators: list[list[int]] = []

    def leaf(colors: list[int], path: tuple[int, ...]) -> int:
        """Record a leaf; return the depth at which the search resumes."""
        nonlocal first, best
        bits = 0
        for u, v in g.edges:
            bits |= 1 << (top - _pair_bit(colors[u], colors[v]))
        if first is None:
            first = best = (bits, colors, path)
            return len(path)
        for ref_bits, ref, ref_path in (first, best):
            if bits == ref_bits:
                # Both labelings give the same graph, so ref^-1 . colors maps
                # the graph onto itself, and ref's path onto this one.
                inverse = sorted(range(n), key=ref.__getitem__)
                generators.append([inverse[c] for c in colors])
                return next(d for d, (a, b) in enumerate(zip(path, ref_path)) if a != b)
        if bits < best[0]:
            best = (bits, colors, path)
        return len(path)

    def search(colors: list[int], fixed: tuple[int, ...]) -> int:
        """Search below the node that individualized `fixed`; return the
        depth at which the search resumes (< len(fixed) abandons this node)."""
        colors = _refine(neigh, colors)
        if len(set(colors)) == n:
            return leaf(colors, fixed)
        # The target is the first cell, by rank, of two or more vertices.
        cell = 0
        while colors.count(cell) == 1:
            cell += 1
        target = [v for v, c in enumerate(colors) if c == cell]
        shifted = [c if c < cell else c + 1 for c in colors]
        # The explored children's orbits under `stab`, the stored generators
        # that fix `fixed` pointwise; the first `closed` entries of `reached`
        # are closed under `stab`, and a new generator reopens them all.
        stab: list[list[int]] = []
        reached: list[int] = []
        used = closed = 0
        for v in target:
            if reached:
                fresh = [gen for gen in generators[used:] if all(gen[p] == p for p in fixed)]
                used = len(generators)
                if fresh:
                    stab, closed = stab + fresh, 0
                while closed < len(reached):
                    reached += {gen[reached[closed]] for gen in stab}.difference(reached)
                    closed += 1
                if v in reached:
                    continue
            reached.append(v)
            # Individualize v: it keeps its cell's rank and every later rank,
            # the rest of its cell included, moves up one.
            resume = search(shifted[:v] + [cell] + shifted[v + 1 :], fixed + (v,))
            if resume < len(fixed):
                return resume
        return len(fixed)

    search([0] * n, ())
    del search  # the closure holds itself: without this, each search's state waits for the cyclic GC
    # |Aut| from the first path; `fixing` holds the generators that fix the
    # vertices individualized above the current node.
    order, fixing = 1, generators
    for w in first[2]:
        orbit = [w]
        for x in orbit:  # also visits the images appended below
            orbit += {gen[x] for gen in fixing}.difference(orbit)
        order *= len(orbit)
        fixing = [gen for gen in fixing if gen[w] == w]
    lab = best[1]
    inverse = sorted(range(n), key=lab.__getitem__)
    return lab, [[lab[gen[v]] for v in inverse] for gen in generators], order


def _check_canon_size(n: int) -> None:
    """Raise SizeLimitError for n above the canon limit, so a caller can refuse before building anything."""
    if n > MAX_CANON_VERTICES:
        raise SizeLimitError(f"canonical labeling supports n <= {MAX_CANON_VERTICES}, got {n}")


def labeled_form(g: Graph) -> tuple[CanonicalForm, list[int]]:
    """g's canonical form and the labeling (old vertex -> new label) that carries g onto it."""
    _check_canon_size(g.n)
    lab, generators, order = _canonical_labeling(g)
    return CanonicalForm(g.n, [(lab[u], lab[v]) for u, v in g.edges], generators, order), lab


def canonical_form(g: Graph) -> CanonicalForm:
    """The canonically relabeled representative of g's class, with its automorphisms; a form is its own."""
    return g if isinstance(g, CanonicalForm) else labeled_form(g)[0]


def canonical_code(g: Graph) -> bytes:
    """Byte string identifying g's isomorphism class (its canonical graph6)."""
    return to_graph6(canonical_form(g)).encode("ascii")
