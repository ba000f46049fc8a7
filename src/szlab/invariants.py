"""Exact distance-based invariants: Wiener, Szeged, revised Szeged, gap.

Everything is integer arithmetic; the revised Szeged index is carried as an
integer scaled by 4 (its denominator always divides 4) and exposed as a
Fraction.  The Szeged index sums per-edge partition products n_u * n_v,
popcounts of the difference of the packed distance rows of the edge's ends,
which is also the one place a vertex's side of an edge is decided (`side_masks`).
W is the rows' total, halved.  `tests/oracles.py` is the outside check,
built on Floyd-Warshall distances and brute loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import ensure
from .graphs import DistanceMatrix, Graph, all_pairs_distances

if TYPE_CHECKING:
    from fractions import Fraction


def wiener(dist: DistanceMatrix) -> int:
    """Sum of distances over unordered vertex pairs: the row sums' total, halved."""
    return sum(map(sum, map(dist.row, range(dist.n)))) // 2


class EdgePartition(NamedTuple):
    """Counts of vertices strictly closer to u, strictly closer to v, equidistant."""

    u: int
    v: int
    n_u: int
    n_v: int
    n_0: int


def _differences(dist: DistanceMatrix, edges) -> Iterator[int]:
    """Each edge uv's packed difference X = packed[v] + ones - packed[u], in the order given.

    Field w of X is d(w, v) - d(w, u) + 1, in 0..2 on an edge: 2 when w is strictly
    closer to u, 1 when equidistant, 0 when strictly closer to v.
    """
    packed, ones = dist.packed, dist.ones
    return (packed[v] + ones - packed[u] for u, v in edges)


def edge_partitions(g: Graph, dist: DistanceMatrix) -> tuple[EdgePartition, ...]:
    """Each edge's partition: n_u and n_0 are popcounts of the 2s and 1s of its packed difference."""
    new, ones, n, parts = tuple.__new__, dist.ones, g.n, []  # no named tuple constructor frame
    for (u, v), x in zip(g.edges, _differences(dist, g.edges)):
        n_u, n_0 = (x >> 1 & ones).bit_count(), (x & ones).bit_count()
        parts.append(new(EdgePartition, (u, v, n_u, n - n_u - n_0, n_0)))
    return tuple(parts)


# A difference field's low byte as a binary digit: 1 where it is 2 (closer to u), or 0 (closer to v).
_CLOSER_TO_U = bytes.maketrans(b"\x00\x01\x02", b"001")
_CLOSER_TO_V = bytes.maketrans(b"\x00\x01\x02", b"100")


def side_masks(g: Graph, dist: DistanceMatrix) -> list[tuple[int, int]]:
    """(A_w, B_w) per vertex w: bit i of A_w (B_w) is set when w is strictly closer to edge i's first (second) end.

    Row j of one byte matrix is the packed difference of edge m - 1 - j, so column w,
    the low bytes of field w, read as a binary numeral has edges[i] at bit i.
    """
    if not g.m:
        return [(0, 0)] * g.n
    width, stride, matrix = dist.width, g.n * dist.width, bytearray()
    for x in _differences(dist, reversed(g.edges)):  # one row at a time, never a list of rows
        matrix += x.to_bytes(stride, "little")
    columns = (matrix[w * width :: stride] for w in range(g.n))
    return [(int(c.translate(_CLOSER_TO_U), 2), int(c.translate(_CLOSER_TO_V), 2)) for c in columns]


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
        """Sz*, exactly: each edge credits half its equidistant count to each side."""
        from fractions import Fraction  # imported on first use: it loads decimal
        return Fraction(self.revised_szeged_times4, 4)

    def to_json_dict(self) -> dict:
        return {"schema": 1, **self._asdict(), "per_edge": [p._asdict() for p in self.per_edge]}


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
