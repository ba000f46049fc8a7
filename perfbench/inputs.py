"""Seeded inputs for the benchmark workloads.

Everything here is independent of the szlab package: graphs are built as
(n, edge list) pairs and encoded with the benchmark's own graph6 writer, so
the program under test only ever sees the generated files.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
N8_CLASSES = HERE / "n8_classes.g6"

# Lines szlab must refuse to parse: bad length, nonzero padding, a byte
# outside 63..126, and a broken long-form size header.
MALFORMED_LINES = ("C~x", "Bz", "hello world", "~~~~")

# Fixed seed for the decompose graph set: the set stays the same for every
# workload seed so that each graph's stdout digest can be recorded once.
DECOMPOSE_SET_SEED = 1210_6460


def to_graph6(n: int, edges) -> str:
    adj = {(u, v) if u < v else (v, u) for u, v in edges}
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return head + body


def from_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    data = text.strip().encode("ascii")
    if data[0] == 126:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    bits = [(b - 63) >> k & 1 for b in body for k in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [p for p, bit in zip(pairs, bits) if bit]


def is_connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) <= 1


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def random_connected_bipartite(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Random spanning tree across two sides plus `extra` more cross edges."""
    side = [v % 2 for v in range(n)]
    rng.shuffle(side)
    a = [v for v in range(n) if side[v] == 0]
    b = [v for v in range(n) if side[v] == 1]
    # Start from one vertex of each side, so every later vertex has a
    # placed neighbour candidate on the other side.
    rest = [v for v in range(n) if v not in (a[0], b[0])]
    rng.shuffle(rest)
    edges = {(min(a[0], b[0]), max(a[0], b[0]))}
    placed = {0: [a[0]], 1: [b[0]]}
    for v in rest:
        u = rng.choice(placed[1 - side[v]])
        edges.add((u, v) if u < v else (v, u))
        placed[side[v]].append(v)
    target = min(len(edges) + extra, len(a) * len(b))
    while len(edges) < target:
        u, v = rng.choice(a), rng.choice(b)
        edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


# --- verify-stream corpus --------------------------------------------------


@dataclass
class Corpus:
    lines: list[str]
    categories: dict[str, int]
    # n -> (graphs expected in scope, graphs expected rejected)
    expected: dict[int, list[int]]
    malformed: int

    @property
    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("ascii")).hexdigest()


def load_n8_classes() -> list[tuple[int, list[tuple[int, int]]]]:
    return [from_graph6(line) for line in N8_CLASSES.read_text().split()]


def verify_corpus(seed: int, copies: int = 2, large: int = 208) -> Corpus:
    """Graph6 corpus for `szlab verify`, weighted toward invariant work.

    * every n=8 class (connected bipartite, m >= n) `copies` times, each
      copy randomly relabelled: duplicate collapse, the equality set and
      `extremal_match`;
    * `large` connected bipartite graphs with n cycling over 17..120 and
      m = n - 1 + n // 2: beyond the canon limit, heavy on BFS distances and
      edge partitions.  Sizes are fixed and only the structure depends on the
      seed, so the amount of work barely varies between seeds;
    * rejects: K4, a tree with m < n, a disconnected graph (two 4-cycles),
      and malformed lines.
    """
    rng = random.Random(seed)
    items: list[tuple[str, str, int, bool]] = []  # (category, graph6, n, in scope)
    classes = load_n8_classes()
    for _ in range(copies):
        for n, edges in classes:
            items.append(("n8_relabelled", to_graph6(n, relabel(rng, n, edges)), n, True))
    for k in range(large):
        n = 17 + k % 104
        edges = random_connected_bipartite(rng, n, n // 2)
        items.append(("large_bipartite", to_graph6(n, edges), n, True))
    items.append(("reject_k4", "C~", 4, False))
    tree = random_connected_bipartite(rng, 20, 0)
    items.append(("reject_tree", to_graph6(20, relabel(rng, 20, tree)), 20, False))
    two_c4 = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
    items.append(("reject_disconnected", to_graph6(8, relabel(rng, 8, two_c4)), 8, False))
    for line in MALFORMED_LINES:
        items.append(("malformed", line, 0, False))
    rng.shuffle(items)

    categories: dict[str, int] = {}
    expected: dict[int, list[int]] = {}
    for cat, _g6, n, ok in items:
        categories[cat] = categories.get(cat, 0) + 1
        if cat != "malformed":
            expected.setdefault(n, [0, 0])[0 if ok else 1] += 1
    return Corpus(
        [g6 for _c, g6, _n, _ok in items],
        dict(sorted(categories.items())),
        dict(sorted(expected.items())),
        len(MALFORMED_LINES),
    )


# --- decompose graph set ---------------------------------------------------

# Blocks hung onto the tree: bridges and small bipartite 2-connected blocks.
# Canon runs on every block of size >= 4 as a tie-break, and these are cheap.
_BLOCKS = ("K2", "K2", "K2", "C4", "C6", "C8", "K23")


def block_tree(rng: random.Random, n_target: int, big_cycle: int = 0) -> tuple[int, list]:
    """Connected bipartite block-tree: blocks glued at random cut vertices.

    `big_cycle` > 0 hangs one cycle of that length, which makes the largest
    2-connected block exceed the canon limit when it is above 16.
    """
    n, edges = 4, [(0, 1), (1, 2), (2, 3), (0, 3)]
    kinds = [f"C{big_cycle}"] if big_cycle else []
    while n < n_target:
        kind = kinds.pop() if kinds else rng.choice(_BLOCKS)
        at = rng.randrange(n)
        if kind == "K2":
            edges.append((at, n))
            n += 1
        elif kind == "K23":
            left, right = (at, n), (n + 1, n + 2, n + 3)
            edges.extend((x, y) for x in left for y in right)
            n += 4
        else:
            p = int(kind[1:])
            ring = [at, *range(n, n + p - 1)]
            edges.extend((ring[i], ring[(i + 1) % p]) for i in range(p))
            n += p - 1
    return n, edges


@dataclass(frozen=True)
class DecomposeGraph:
    name: str
    graph6: str
    n: int
    # True for the graph with a 2-connected block above the canon limit; at
    # the seed `gap_decomposition` raises SizeLimitError on it (a known defect).
    known_size_limit: bool


def decompose_set(count: int = 4, n_target: int = 200) -> list[DecomposeGraph]:
    """`count` block-trees of about `n_target` vertices, then one of the same
    size whose 20-cycle block is beyond the canon limit."""
    rng = random.Random(DECOMPOSE_SET_SEED)
    out = []
    for i in range(count):
        n, edges = block_tree(rng, n_target)
        out.append(DecomposeGraph(f"blocktree{i}", to_graph6(n, relabel(rng, n, edges)), n, False))
    n, edges = block_tree(rng, n_target, big_cycle=20)
    out.append(DecomposeGraph("blocktree_c20", to_graph6(n, relabel(rng, n, edges)), n, True))
    return out


def decompose_order(seed: int, graphs: list[DecomposeGraph]) -> list[DecomposeGraph]:
    order = list(graphs)
    random.Random(seed).shuffle(order)
    return order
