"""Exact distance-based invariants: Wiener, Szeged, revised Szeged, gap.

Everything is integer arithmetic; the revised Szeged index is carried as an
integer scaled by 4 (its denominator always divides 4) and exposed as a
Fraction.  The Szeged index sums per-edge partition products n_u * n_v,
popcounts of the difference of the packed distance rows of the edge's ends;
W is the rows' digit sum, halved.  `tests/oracles.py` is the outside check,
built on Floyd-Warshall distances and brute loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import GraphConstructionError, ensure
from .graphs import DistanceMatrix, Graph, all_pairs_distances

if TYPE_CHECKING:
    from fractions import Fraction


def wiener(dist: DistanceMatrix) -> int:
    """Sum of distances over unordered vertex pairs: the packed rows' digit sum, halved."""
    width = dist.width
    data = b"".join(p.to_bytes(dist.n * width, "little") for p in dist.packed)
    # Byte i of a little-endian field carries 256**i of its value.
    return sum(sum(data[i::width]) << 8 * i for i in range(width)) // 2


class EdgePartition(NamedTuple):
    """Counts of vertices strictly closer to u, strictly closer to v, equidistant."""

    u: int
    v: int
    n_u: int
    n_v: int
    n_0: int


def edge_partition(g: Graph, dist: DistanceMatrix, e: tuple[int, int]) -> EdgePartition:
    u, v = e
    if not g.has_edge(u, v):
        raise GraphConstructionError(f"({u}, {v}) is not an edge")
    # Field w of x is d(w, v) - d(w, u) + 1, which lies in 0..2 on an edge:
    # 2 when w is closer to u, 1 when equidistant.
    x = dist.packed[v] + dist.ones - dist.packed[u]
    n_u, n_0 = (x >> 1 & dist.ones).bit_count(), (x & dist.ones).bit_count()
    return EdgePartition(u, v, n_u, g.n - n_u - n_0, n_0)


def edge_partitions(g: Graph, dist: DistanceMatrix) -> tuple[EdgePartition, ...]:
    return tuple(edge_partition(g, dist, e) for e in g.edges)


def szeged(g: Graph) -> int:
    """Sum over edges of n_u * n_v."""
    return compute_invariants(g).szeged


def revised_szeged_times4(g: Graph) -> int:
    """4 * Sz*, exact: sum over edges of (2 n_u + n_0)(2 n_v + n_0)."""
    return compute_invariants(g).revised_szeged_times4


def revised_szeged(g: Graph) -> Fraction:
    """Szeged variant crediting half the equidistant count to each side."""
    return compute_invariants(g).revised_szeged


def gap(g: Graph) -> int:
    """Szeged index minus Wiener index."""
    return compute_invariants(g).gap


class InvariantReport(NamedTuple):
    """One graph's invariants and its per-edge partition table."""

    n: int
    m: int
    wiener: int
    szeged: int
    revised_szeged_times4: int
    gap: int
    per_edge: tuple[EdgePartition, ...]

    @property
    def revised_szeged(self) -> Fraction:
        from fractions import Fraction  # imported on first use: it loads decimal
        return Fraction(self.revised_szeged_times4, 4)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "m": self.m,
            "wiener": self.wiener,
            "szeged": self.szeged,
            "revised_szeged_times4": self.revised_szeged_times4,
            "gap": self.gap,
            "per_edge": [
                {"u": p.u, "v": p.v, "n_u": p.n_u, "n_v": p.n_v, "n_0": p.n_0}
                for p in self.per_edge
            ],
        }


def compute_invariants(g: Graph) -> InvariantReport:
    """W, Sz, Sz* and the gap from one distance computation; Sz* = Sz is checked on bipartite graphs."""
    dist = all_pairs_distances(g)
    parts = edge_partitions(g, dist)
    w = wiener(dist)
    sz = sum(p.n_u * p.n_v for p in parts)
    sz4 = sum((2 * p.n_u + p.n_0) * (2 * p.n_v + p.n_0) for p in parts)
    # A connected graph is bipartite iff every edge joins distances of opposite parity from vertex 0.
    d0 = dist.row(0) if g.n else ()
    if all((d0[u] ^ d0[v]) & 1 for u, v in g.edges):
        ensure(all(p.n_0 == 0 for p in parts), "bipartite graph with an equidistant vertex")
        ensure(sz4 == 4 * sz, "bipartite graph with Sz* != Sz")
    return InvariantReport(g.n, g.m, w, sz, sz4, sz - w, parts)
