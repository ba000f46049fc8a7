"""Isomorph-free graph generation and the gap-bound verification pipeline.

Generation walks edge-augmentation levels starting from the edgeless graph
on n vertices, keeping one canonical representative per isomorphism class at
each edge count (the stored representative is the canonical labeling itself,
so kept graphs reproduce their own code).  Bipartite-breaking additions are
pruned at the source; connectivity and the minimum edge count are
post-filters so the same generator also serves tree workloads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Iterable, Iterator

from .canon import canonical_code, canonical_form
from .errors import Graph6Error, SizeLimitError
from .extremal import extremal_family
from .formats import parse_graph6, to_graph6
from .graphs import Graph, bipartition, Bipartition, is_bipartite, is_connected
from .invariants import compute_invariants

BUILTIN_ENUMERATION_LIMIT = 8


@dataclass(frozen=True)
class EnumerationSpec:
    """What to generate: vertex count, minimum edges, and structural filters."""

    n: int
    min_edges: int | None = None
    connected: bool = True
    bipartite: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.min_edges is not None and self.min_edges < 0:
            raise ValueError(f"min_edges must be >= 0, got {self.min_edges}")

    @property
    def effective_min_edges(self) -> int:
        return self.n if self.min_edges is None else self.min_edges


def _bipartite_safe_additions(g: Graph) -> list[tuple[int, int]]:
    # An edge keeps the graph bipartite iff it joins different components or
    # opposite sides of one component's 2-coloring.
    bip = bipartition(g)
    assert isinstance(bip, Bipartition)
    comp = [-1] * g.n
    cid = 0
    for v in g.vertices():
        if comp[v] != -1:
            continue
        stack = [v]
        comp[v] = cid
        while stack:
            a = stack.pop()
            for b in g.neighbors(a):
                if comp[b] == -1:
                    comp[b] = cid
                    stack.append(b)
        cid += 1
    side = {v: 0 for v in bip.side_a}
    side.update({v: 1 for v in bip.side_b})
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            if comp[u] != comp[v] or side[u] != side[v]:
                out.append((u, v))
    return out


def generate(spec: EnumerationSpec) -> Iterator[Graph]:
    """One canonical representative per isomorphism class, deterministic order.

    Order is by edge count, then by canonical code.  Built-in limit is
    n <= 8; larger runs must be fed externally as graph6 streams.
    """
    if spec.n > BUILTIN_ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"built-in enumeration supports n <= {BUILTIN_ENUMERATION_LIMIT}; "
            f"supply graphs for n={spec.n} via a graph6 stream"
        )
    n = spec.n
    # The edgeless graph is its own canonical form.
    level = {to_graph6(Graph(n, [])): Graph(n, [])}
    max_edges = n * n // 4 if spec.bipartite else n * (n - 1) // 2
    for m in range(max_edges + 1):
        for code in sorted(level):
            g = level[code]
            keep = m >= spec.effective_min_edges
            if spec.connected and not is_connected(g):
                keep = False
            if keep:
                yield g
        if m == max_edges:
            break
        nxt: dict[str, Graph] = {}
        for code in sorted(level):
            g = level[code]
            if spec.bipartite:
                additions = _bipartite_safe_additions(g)
            else:
                additions = [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if not g.has_edge(u, v)
                ]
            for u, v in additions:
                form = canonical_form(Graph(n, list(g.edges) + [(u, v)]))
                nxt.setdefault(to_graph6(form), form)
        level = nxt


@dataclass(frozen=True)
class StreamRecord:
    """One parsed graph6 line, or its error, with line-number provenance."""

    lineno: int
    graph: Graph | None
    error: str | None


def ingest_graph6_stream(lines: Iterable[str]) -> Iterator[StreamRecord]:
    """Parse one graph6 record per line; failures are reported, not fatal."""
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            yield StreamRecord(lineno, parse_graph6(text), None)
        except Graph6Error as exc:
            yield StreamRecord(lineno, None, str(exc))


@dataclass(frozen=True)
class EqualityEntry:
    canonical: str | None
    graph6: str


@dataclass(frozen=True)
class VerificationReport:
    """Per-n summary of checking Sz - W >= 4n - 8 over a set of graphs."""

    n: int
    graphs_checked: int
    rejected: int
    min_gap: int | None
    bound: int
    violations: tuple[str, ...]
    equality_graphs: tuple[EqualityEntry, ...]
    extremal_match: bool | None
    stats: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "graphs_checked": self.graphs_checked,
            "rejected": self.rejected,
            "min_gap": self.min_gap,
            "bound": self.bound,
            "violations": list(self.violations),
            "equality_graphs": [
                {"canonical_code": e.canonical, "graph6": e.graph6} for e in self.equality_graphs
            ],
            "extremal_match": self.extremal_match,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=False)


def _examine(g6: str) -> dict:
    g = parse_graph6(g6)
    ok = is_connected(g) and is_bipartite(g) and g.m >= g.n
    rec: dict = {"graph6": g6, "n": g.n, "m": g.m, "ok": ok}
    if not ok:
        return rec
    report = compute_invariants(g)
    rec.update(wiener=report.wiener, szeged=report.szeged, gap=report.gap)
    # Only equality graphs are deduplicated, so only they need a canonical code.
    if report.gap == 4 * g.n - 8 and g.n <= 16:
        rec["canonical"] = canonical_code(g).decode("ascii")
    else:
        rec["canonical"] = None
    return rec


def verify_conjecture(graphs: Iterable[Graph], workers: int = 1) -> list[VerificationReport]:
    """Check the gap bound; one report per vertex count present in the input.

    Inputs failing the hypotheses (connected, bipartite, m >= n) are tallied
    as rejected.  Reports are identical for any worker count.
    """
    t0 = time.monotonic()
    lines = [to_graph6(g) for g in graphs]
    if workers > 1 and len(lines) > 1:
        with Pool(processes=workers) as pool:
            records = pool.map(_examine, lines, chunksize=16)
    else:
        records = [_examine(g6) for g6 in lines]

    by_n: dict[int, list[dict]] = {}
    rejected: dict[int, int] = {}
    for rec in records:
        if rec["ok"]:
            by_n.setdefault(rec["n"], []).append(rec)
        else:
            rejected[rec["n"]] = rejected.get(rec["n"], 0) + 1
    reports = []
    for n in sorted(set(by_n) | set(rejected)):
        recs = by_n.get(n, [])
        bound = 4 * n - 8
        min_gap = min((r["gap"] for r in recs), default=None)
        violations = tuple(sorted(r["graph6"] for r in recs if r["gap"] < bound))
        # Isomorphic duplicates in the input collapse to one equality entry.
        seen: dict[str, str] = {}
        undeduped = []
        for r in recs:
            if r["gap"] != bound:
                continue
            if r["canonical"] is None:
                undeduped.append((None, r["graph6"]))
            elif r["canonical"] not in seen:
                seen[r["canonical"]] = r["graph6"]
        equality = sorted(seen.items()) + sorted(undeduped, key=lambda t: t[1])
        match: bool | None = None
        if 4 <= n <= 16 and not undeduped and recs:
            family_codes = sorted(member.canonical for member in extremal_family(n))
            match = sorted(seen) == family_codes
        reports.append(
            VerificationReport(
                n=n,
                graphs_checked=len(recs),
                rejected=rejected.get(n, 0),
                min_gap=min_gap,
                bound=bound,
                violations=violations,
                equality_graphs=tuple(EqualityEntry(c, g6) for c, g6 in equality),
                extremal_match=match,
                stats={"seconds": time.monotonic() - t0, "workers": workers},
            )
        )
    return reports
