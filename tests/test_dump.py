"""The `decompose` output formats against the dict-built form, pinned digests and a memory ceiling.

`szlab decompose --pairs` writes its pair dump a row of pairs (x, y), y > x, at
a time from one pair template; these tests hold it to `json.dumps` of the
pair dicts it replaced.
"""

import hashlib
import json
import random
import tracemalloc
from contextlib import redirect_stdout
from io import StringIO

from hypothesis import example, given, settings
from hypothesis import strategies as st

from szlab.cli import main
from szlab.formats import to_graph6
from szlab.graphs import Graph, cycle_graph
from szlab.proofs import gap_decomposition

from .oracles import floyd_warshall, surplus_brute

# Bridges and bipartite 2-connected blocks (4-, 6- and 18-cycles, K_{2,3}), with the vertices each adds.
_KINDS = {"K2": 1, "C4": 3, "C6": 5, "C18": 17, "K23": 4}


def block_tree(rng: random.Random, n_target: int) -> Graph:
    """A 4-cycle with blocks that fit hung at random vertices until n = n_target, randomly relabelled."""
    n, edges = 4, [(0, 1), (1, 2), (2, 3), (0, 3)]
    while n < n_target:
        kind = rng.choice(["K2"] + [k for k, grow in _KINDS.items() if n + grow <= n_target])
        at = rng.randrange(n)
        if kind == "K2":
            edges.append((at, n))
            n += 1
        elif kind == "K23":
            edges += [(x, y) for x in (at, n) for y in (n + 1, n + 2, n + 3)]
            n += 4
        else:
            ring = [at, *range(n, n + int(kind[1:]) - 1)]
            edges += list(zip(ring, ring[1:] + ring[:1]))
            n += len(ring) - 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _stdout(*argv: str) -> str:
    out = StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


# Two tied 4-cycles with paths off both: all three categories, the least vertex list designated.
TIED = Graph(9, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6), (3, 6), (1, 7), (5, 8)])
# An 18-cycle block, above the canonical labeling limit, with a 4-cycle and a bridge hung on it.
LONG = Graph(22, [(i, (i + 1) % 18) for i in range(18)] + [(0, 18), (18, 19), (19, 20), (0, 20), (9, 21)])


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.builds(block_tree, st.randoms(use_true_random=False), st.integers(4, 40)))
@example(TIED)
@example(LONG)
@example(cycle_graph(4))
@example(block_tree(random.Random(92), 100))  # 4,950 pairs
def test_pairs_dump_is_json_dumps_of_the_pair_dicts(g):
    d = gap_decomposition(g)
    payload = d.to_json_dict()
    payload["pairs"] = [
        {"x": x, "y": y, "distance": dist, "surplus": s, "category": cat[0]}
        for x, y, dist, s, cat in d.pair_rows()
    ]
    out, expected = _stdout("decompose", "--pairs", "--graph6", to_graph6(g)), json.dumps(payload) + "\n"
    # Byte-exact, compared a pair at a time so that a failure names the first differing pair.
    assert out.split("}, {") == expected.split("}, {")
    fw = floyd_warshall(g)
    pairs = [(p["x"], p["y"], p["distance"], p["surplus"]) for p in payload["pairs"]]
    assert pairs == [(x, y, fw[x][y], surplus_brute(g, x, y, fw)) for x in range(g.n) for y in range(x + 1, g.n)]


def test_tied_and_long_examples_cover_every_category():
    for g, tied in ((TIED, True), (LONG, False)):
        d = gap_decomposition(g)
        sizes = d.blocks.block_sizes
        assert {cat[0] for *_, cat in d.pair_rows()} == {"within", "cross_root", "cross_other"}
        assert (sizes.count(max(sizes)) > 1) == tied
    assert max(gap_decomposition(LONG).blocks.block_sizes) == 18 > 16


# sha256 of stdout for each format on block_tree(random.Random(7), 40), recorded
# from the dict-built dump this writer replaced.
DIGESTS = {
    ("--pairs",): "6183c07e140969825a86354d5550f1171785ec6b660ff0044df4688bf1f1ef99",
    ("--format", "json"): "a081bdcecbcda258480bd8574dd74abbbd41a3246d875b968cdd36b2384be716",
    ("--format", "csv"): "d86c6b75a6111cc79d277d2c82c37f0c7b3b571a697b6d16fcb92c42a856065e",
    ("--format", "human"): "483537dc9137c45df7427d7b0090b884e38c3e413f1d5242b7f1b463321feeab",
}


def test_decompose_formats_keep_their_bytes():
    g6 = to_graph6(block_tree(random.Random(7), 40))
    for flags, digest in DIGESTS.items():
        out = _stdout("decompose", *flags, "--graph6", g6)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


class _Sink:
    """A stdout that keeps nothing but a count of the pairs written to it."""

    pairs = 0

    def write(self, text: str) -> int:
        self.pairs += text.count('{"x": ')
        return len(text)


def test_pairs_dump_peak_traced_memory(tmp_path):
    # 200 vertices, 19,900 pairs, a dump of about 1.5 MB, which the pair dicts held
    # at some 13.5 MiB traced.  The writer holds one row of text at a time, so the
    # whole command peaks little above gap_decomposition's own traced peak
    # (4,096-pair chunks added 1.1 MiB).
    g = block_tree(random.Random(3), 200)
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(g) + "\n")
    argv = ["decompose", "--pairs", "--file", str(path)]
    sink = _Sink()
    tracemalloc.start()
    try:
        gap_decomposition(g)
        own = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with redirect_stdout(sink):
            assert main(argv) == 0
        top = tracemalloc.get_traced_memory()[1]
        peak = top - base
    finally:
        tracemalloc.stop()
    assert sink.pairs == 19_900
    assert top < 4 * 2**20, f"traced peak {top / 2**20:.2f} MiB"
    assert peak <= own + 256 * 1024, f"traced peak {peak / 2**20:.2f} MiB, gap_decomposition {own / 2**20:.2f} MiB"
    # The same dump, untraced, parses as JSON with every pair.
    with open(tmp_path / "out.json", "w") as out, redirect_stdout(out):
        assert main(argv) == 0
    assert len(json.loads((tmp_path / "out.json").read_text())["pairs"]) == 19_900
