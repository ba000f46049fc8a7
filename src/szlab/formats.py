"""graph6 codec and the plain edge-list text format.

graph6 layout: a size header (byte n+63 for n <= 62, or '~' plus three bytes
carrying 18 bits for larger n), then the upper adjacency triangle in
column-major order x(0,1), x(0,2), x(1,2), x(0,3), ... packed six bits per
byte, most significant bit first, each byte offset by 63, final byte
zero-padded.  `_pair_bit` is that pair order, the one place it is written;
canon's codes compare it too.  Parsing is strict: wrong length, out-of-range
bytes, or nonzero padding are rejected.

Edge-list format: first line "n m", then m lines "u v".
"""

from __future__ import annotations

from .errors import EdgeListFormatError, Graph6Error
from .graphs import Graph

_HEADER_PREFIX = ">>graph6<<"
# Bytes 63..126 carry six bits each, which _SHIFT takes to 0..63 and _SIX_BITS spells out.
_VALID = bytes(range(63, 127))
_SHIFT = bytes.maketrans(_VALID, bytes(range(64)))
_SIX_BITS = tuple(f"{i:06b}" for i in range(64))


def _pair_bit(u: int, v: int) -> int:
    """Position of pair {u, v} in graph6's bit order: j(j-1)/2 + i for i < j."""
    i, j = (u, v) if u < v else (v, u)
    return j * (j - 1) // 2 + i


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0))
    else:
        raise Graph6Error(f"graph6 size header for n={n} not supported")
    nbits = n * (n - 1) // 2
    bits = bytearray(b"0" * (nbits + -nbits % 6))
    for u, v in g.edges:
        bits[_pair_bit(u, v)] = 49  # ord("1")
    return head + "".join([chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6)])


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 record; trailing garbage is an error."""
    s = text.strip()
    if s.startswith(_HEADER_PREFIX):
        s = s[len(_HEADER_PREFIX) :]
    if not s:
        raise Graph6Error("empty graph6 record")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("graph6 record contains non-ASCII characters") from exc
    if data.translate(None, _VALID):
        raise Graph6Error("graph6 record contains bytes outside 63..126")
    if data[0] == 126:
        if len(data) < 4 or data[1] == 126:
            raise Graph6Error("malformed graph6 size header")
        n = 0
        for b in data[1:4]:
            n = n << 6 | (b - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) != nbytes:
        raise Graph6Error(f"graph6 bit region has {len(body)} bytes, expected {nbytes} for n={n}")
    bits = "".join(map(_SIX_BITS.__getitem__, body.translate(_SHIFT)))
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits in final graph6 byte")
    edges = []
    for j in range(1, n):
        start, stop = _pair_bit(0, j), _pair_bit(0, j + 1)
        k = bits.find("1", start, stop)
        while k != -1:
            edges.append((k - start, j))
            k = bits.find("1", k + 1, stop)
    return Graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise EdgeListFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListFormatError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise EdgeListFormatError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise EdgeListFormatError(f"header declares {m} edges but {len(lines) - 1} lines follow")
    pairs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"expected edge line 'u v', got {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise EdgeListFormatError(f"non-integer edge line {ln!r}") from exc
    try:
        return Graph(n, pairs)
    except ValueError as exc:
        raise EdgeListFormatError(str(exc)) from exc
