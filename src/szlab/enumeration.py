"""Isomorph-free graph generation and the gap-bound verification pipeline.

Generation is McKay's canonical construction path ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998), depth-first from the edgeless graph.
A node G, a canonical form with generators of Aut(G), proposes one
bipartite-safe addition e per orbit and keeps H = G + e iff e lies in the
Aut(H)-orbit of m(H), the greatest canonical pair among H's edges of
greatest degree key.  The key is label-invariant, so an e below H's greatest
key is dropped unsearched; otherwise H is canonized once.  Connectivity and
the minimum edge count are post-filters, so trees come out too.

Each class H is kept once.  By induction on m, H - m(H) is a node G; an
isomorphism onto G carries m(H) to an addition whose orbit representative e
gives G + e isomorphic to H by a map taking m(H) to e, and m commutes with
isomorphisms up to automorphisms, so G + e is kept.  Isomorphic kept
children are so by a map taking new edge to new edge, so they share G and an
Aut(G)-orbit, hence the representative.  Nothing deduplicates afterwards:
both steps rest on complete orbits, that is on canon's generators spanning
Aut, which `test_group_order_matches_brute_force` checks.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Iterable, Iterator, NamedTuple

from .canon import MAX_CANON_VERTICES, CanonicalForm, canonical_code, canonical_form, labeled_form
from .errors import EnumerationLimitError, Graph6Error
from .extremal import is_extremal_form, rooted_tree_count
from .formats import parse_graph6, to_graph6
from .graphs import Graph, bfs_forest, connected_and_bipartite
from .invariants import compute_invariants

BUILTIN_ENUMERATION_LIMIT = 12


class _SpecFields(NamedTuple):
    n: int
    min_edges: int | None
    connected: bool


class EnumerationSpec(_SpecFields):
    """What to generate: vertex count, minimum edges, and whether only connected graphs are kept."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, n: int, min_edges: int | None = None, connected: bool = True):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if min_edges is not None and min_edges < 0:
            raise ValueError(f"min_edges must be >= 0, got {min_edges}")
        if n > BUILTIN_ENUMERATION_LIMIT:
            raise EnumerationLimitError(
                f"n={n} exceeds the built-in enumeration limit ({BUILTIN_ENUMERATION_LIMIT}); "
                "pipe a graph6 stream to `verify` instead"
            )
        return super().__new__(cls, n, min_edges, connected)

    @property
    def effective_min_edges(self) -> int:
        return self.n if self.min_edges is None else self.min_edges


def _bipartite_safe_additions(g: Graph, root: list[int], depth: list[int]) -> list[tuple[int, int]]:
    # Given g's BFS forest, an edge keeps the graph bipartite iff it joins
    # different components or vertices of opposite depth parity in one component.
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v) and (root[u] != root[v] or (depth[u] ^ depth[v]) & 1)
    ]


def _orbit_roots(pairs: list[tuple[int, int]], generators: list[list[int]]) -> list[int]:
    # Pairs closed under the generators; each orbit is walked from its first
    # index, which every pair in it gets as its root.
    index = {p: i for i, p in enumerate(pairs)}
    roots = [-1] * len(pairs)
    for i in range(len(pairs)):
        if roots[i] < 0:
            roots[i], orbit = i, [pairs[i]]
            for u, v in orbit:
                for gen in generators:
                    a, b = gen[u], gen[v]
                    j = index[(a, b) if a < b else (b, a)]
                    if roots[j] < 0:
                        roots[j] = i
                        orbit.append(pairs[j])
    return roots


def _edge_key(du: int, dv: int) -> tuple[int, int]:
    """A label-invariant score of an edge from its ends' degrees; it never falls as a degree grows."""
    return du + dv, max(du, dv)


def _children(g: CanonicalForm, additions: list[tuple[int, int]]) -> Iterator[CanonicalForm]:
    """The forms of the g + e whose new edge e lies in the orbit of their chosen edge m(g + e)."""
    deg = [g.degree(v) for v in range(g.n)]
    top = [max(_edge_key(deg[a], deg[b]) for a, b in g.edges)] if g.m else []
    for u, v in additions:
        du, dv = deg[u] + 1, deg[v] + 1
        key = _edge_key(du, dv)
        # Keys never fall as degrees grow, and only the edges at u and v change
        # theirs: e has the greatest key in g + e iff none of these beats it.
        rivals = [_edge_key(du, deg[w]) for w in g.neighbors(u)]
        rivals += [_edge_key(dv, deg[w]) for w in g.neighbors(v)]
        if max(rivals + top, default=key) > key:
            continue
        form, lab = labeled_form(Graph(g.n, g.edges + ((u, v),)))
        # The edges of greatest key, closed under Aut; m(g + e) is the last.
        tied = [p for p in form.edges if _edge_key(form.degree(p[0]), form.degree(p[1])) == key]
        roots = _orbit_roots(tied, form.generators)
        if roots[tied.index(tuple(sorted((lab[u], lab[v]))))] == roots[-1]:
            yield form


def generate(spec: EnumerationSpec) -> Iterator[CanonicalForm]:
    """One canonical representative per isomorphism class, in a deterministic depth-first order.

    Each representative is a `CanonicalForm`, so it carries its automorphism
    generators and |Aut|.  Nothing is kept but the stack of forms still to
    expand.  The spec holds n to the built-in limit of 12; larger runs must
    be fed externally as graph6 streams.
    """
    stack = [canonical_form(Graph(spec.n, []))]
    while stack:
        g = stack.pop()
        # One BFS forest per class: its roots say whether g is connected.
        root, depth = bfs_forest(g)
        if g.m >= spec.effective_min_edges and not (spec.connected and any(root)):
            yield g
        pairs = _bipartite_safe_additions(g, root, depth)
        roots = _orbit_roots(pairs, g.generators)
        stack.extend(_children(g, [p for i, p in enumerate(pairs) if roots[i] == i]))


class EqualityEntry(NamedTuple):
    canonical: str | None
    graph6: str


class VerificationReport(NamedTuple):
    """Per-n summary of checking Sz - W >= 4n - 8 over a set of graphs."""

    n: int
    graphs_checked: int
    rejected: int
    min_gap: int | None
    bound: int
    violations: tuple[str, ...]
    equality_graphs: tuple[EqualityEntry, ...]
    extremal_match: bool | None

    def to_json_dict(self) -> dict:
        equality = [{"canonical_code": e.canonical, "graph6": e.graph6} for e in self.equality_graphs]
        return {"schema": 1, **self._asdict(), "equality_graphs": equality}


def _examine(g: Graph, rows: bool) -> dict:
    """One graph's record: whether it meets the hypotheses, and what a report or a CSV row needs of it.

    Without `rows`, the record holds n and, for a checked graph, its gap and
    the names reports use: a graph a report lists is named by its standard
    graph6, whatever line it was read from.  With `rows`, it holds only "ok"
    and, for a connected graph, its per-graph CSV row, ending in its scope:
    "checked", or why the report rejects it ("not_bipartite", "m_below_n").
    """
    forest = bfs_forest(g)
    connected, bipartite = connected_and_bipartite(g, forest)
    ok = connected and bipartite and g.m >= g.n
    if rows:
        if not connected:
            return {"ok": False}
        report = compute_invariants(g)
        code = canonical_code(g).decode("ascii") if g.n <= MAX_CANON_VERTICES else ""
        scope = "checked" if ok else "m_below_n" if bipartite else "not_bipartite"
        return {"ok": ok, "row": [code, g.n, g.m, report.wiener, report.szeged, report.gap, scope]}
    rec: dict = {"n": g.n, "ok": ok}
    if not ok:
        return rec
    gap, bound = compute_invariants(g).gap, 4 * g.n - 8
    # Only equality graphs are deduplicated, so only they need a canonical code.
    code = canonical_code(g).decode("ascii") if gap == bound and g.n <= MAX_CANON_VERTICES else None
    rec.update(gap=gap, canonical=code, extremal=gap == bound and is_extremal_form(g, forest))
    if gap <= bound:
        rec["graph6"] = to_graph6(g)
    return rec


def _examine_line(item: tuple[int, str], rows: bool) -> dict:
    lineno, text = item
    try:
        g = parse_graph6(text)
    except Graph6Error as exc:
        return {"lineno": lineno, "error": str(exc)}
    return _examine(g, rows)


def Pool(processes: int):
    """A pool of `processes` forked workers, `szlab._pool.ForkPool`, imported on first use.

    Each worker holds one chunk at a time.  Every pool is built through this
    name, so only runs with workers > 1 load the pool module, and none loads
    multiprocessing.
    """
    from ._pool import ForkPool
    return ForkPool(processes)


def _in_order(fn, items: Iterable, workers: int) -> Iterator[dict]:
    """fn over items, in order, the same records for any worker count.

    With workers > 1, chunks of 16 items go round-robin to forked workers,
    one chunk to each at a time, so a streamed input is read at most
    (workers + 1) chunks ahead of the records.  Without os.fork the items
    are mapped in this process, as with one worker.
    """
    if workers <= 1 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    with Pool(processes=workers) as pool:
        yield from pool.imap(fn, items, chunksize=16)


def examine_lines(lines: Iterable[str], workers: int, rows: bool) -> Iterator[dict]:
    """Records of the non-blank graph6 lines in line order, each line parsed once, by a worker.

    An unparseable line gives a record of only its "lineno" and "error".
    """
    items = ((lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip())
    return _in_order(partial(_examine_line, rows=rows), items, workers)


def examine(graphs: Iterable[Graph], workers: int, rows: bool = False) -> Iterator[dict]:
    """Records of the graphs in order, the same for any worker count; a pool receives the graphs themselves."""
    return _in_order(partial(_examine, rows=rows), graphs, workers)


class _Tally:
    def __init__(self):
        self.checked = 0
        self.rejected = 0
        self.min_gap: int | None = None
        self.violations: list[str] = []
        self.classes: dict[str, str] = {}  # canonical code -> first graph6
        self.uncoded: list[str] = []  # equality graphs above the canon limit
        self.strays = 0  # equality graphs not of extremal form


def fold_records(records: Iterable[dict]) -> list[VerificationReport]:
    """Fold records as they arrive into one report per n present, keeping only per-n tallies and equality classes."""
    tallies: dict[int, _Tally] = {}
    for rec in records:
        t = tallies.setdefault(rec["n"], _Tally())
        if not rec["ok"]:
            t.rejected += 1
            continue
        t.checked += 1
        t.min_gap = rec["gap"] if t.min_gap is None else min(t.min_gap, rec["gap"])
        bound = 4 * rec["n"] - 8
        if rec["gap"] < bound:
            t.violations.append(rec["graph6"])
        elif rec["gap"] == bound and rec["canonical"] is None:
            t.uncoded.append(rec["graph6"])
        elif rec["gap"] == bound:
            # Isomorphic duplicates in the input collapse to one equality entry.
            t.classes.setdefault(rec["canonical"], rec["graph6"])
            t.strays += not rec["extremal"]
    reports = []
    for n, t in sorted(tallies.items()):
        match: bool | None = None
        if 4 <= n <= MAX_CANON_VERTICES and t.checked:
            # Exact: the classes are distinct, each extremal-form class is one
            # family member, and the family has A000081(n - 3) classes.
            match = not t.strays and len(t.classes) == rooted_tree_count(n - 3)
        equality = sorted(t.classes.items()) + [(None, g6) for g6 in sorted(t.uncoded)]
        reports.append(VerificationReport(
            n=n, graphs_checked=t.checked, rejected=t.rejected, min_gap=t.min_gap, bound=4 * n - 8,
            violations=tuple(sorted(t.violations)),
            equality_graphs=tuple(EqualityEntry(c, g6) for c, g6 in equality),
            extremal_match=match,
        ))
    return reports


def verify_conjecture(graphs: Iterable[Graph]) -> list[VerificationReport]:
    """Check the gap bound; one report per vertex count present in the input.

    Inputs failing the hypotheses (connected, bipartite, m >= n) are tallied
    as rejected.
    """
    return fold_records(examine(graphs, 1))
