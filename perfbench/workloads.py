"""The four workloads: the szlab invocations of one round, and their output checks.

Every operation is one `szlab` command line.  A check returns the reasons an
output is wrong (an empty list when it is right).  Outputs are compared with
the stdout digest recorded at the seed commit where one exists, and are
always checked against facts that do not depend on szlab: OEIS counts,
the bound 4n - 8, and what the generated inputs contain.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from inputs import (
    Corpus,
    decompose_order,
    decompose_set,
    from_graph6,
    is_connected,
    verify_corpus,
)

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# Connected bipartite classes with m >= n: OEIS A005142(n) minus the trees A000055(n).
ELIGIBLE_CLASSES = {4: 3 - 2, 5: 5 - 3, 6: 17 - 6, 7: 44 - 11, 8: 182 - 23}
# Rooted trees on k vertices, OEIS A000081: extremal_family(n) has A000081(n - 3) members.
ROOTED_TREES = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115, 9: 286}

SIZES = {
    # Full size is what the benchmark measures; tiny is for the smoke test.
    # "layers": (level trace n, generate peak n, kernel top size).  Each full
    # operation takes about a second on a 2-vCPU Xeon, so that one run of
    # RUN_SECONDS holds 10-20 of them and their median is steady; n = 8 for
    # enumerate and n = 12 for extremal take 7-18 s each there.
    "full": {"enumerate": (4, 7), "extremal": 11, "corpus": (2, 208), "decompose": (4, 200),
             "layers": (8, 7, 8)},
    "tiny": {"enumerate": (4, 6), "extremal": 7, "corpus": (1, 6), "decompose": (2, 40),
             "layers": (6, 5, 6)},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pairs(n: int) -> int:
    return n * (n - 1) // 2


def load_expected() -> dict:
    if EXPECTED.is_file():
        return json.loads(EXPECTED.read_text())
    return {}


@dataclass
class Op:
    label: str
    argv: list[str]
    # Vertex pairs covered by the operation's verdict, for pairs_per_s.
    pairs: int
    check: Callable[[bytes, bytes], list[str]]
    # Exception that szlab raises on this input at the seed commit, if any.
    known_failure: str | None = None


@dataclass
class Round:
    ops: list[Op]
    # Recorded alongside results: corpus composition and digest.
    record: dict = field(default_factory=dict)
    # In-process passes of the traced run use these argument lists.
    serial_argv: list[list[str]] | None = None


def _digest_check(digest: str | None, stdout: bytes) -> list[str]:
    if digest is not None and sha256(stdout) != digest:
        return [f"stdout sha256 {sha256(stdout)[:12]} differs from the seed's {digest[:12]}"]
    return []


def _json(stdout: bytes):
    return json.loads(stdout.decode("ascii"))


def enumerate_round(seed: int, work: Path, size: str, expected: dict) -> Round:
    lo, hi = SIZES[size]["enumerate"]
    argv = ["enumerate", "--n", f"{lo}..{hi}"]
    digest = expected.get("stdout_sha256", {}).get("enumerate", {}).get(" ".join(argv))

    def check(stdout: bytes, _stderr: bytes) -> list[str]:
        reasons = _digest_check(digest, stdout)
        reports = _json(stdout)["reports"]
        if [r["n"] for r in reports] != list(range(lo, hi + 1)):
            return reasons + ["reports do not cover n = %d..%d" % (lo, hi)]
        for r in reports:
            n = r["n"]
            if r["graphs_checked"] != ELIGIBLE_CLASSES[n] or r["rejected"] != 0:
                reasons.append(f"n={n}: checked {r['graphs_checked']}, want {ELIGIBLE_CLASSES[n]}")
            if r["violations"] or r["min_gap"] != 4 * n - 8 or r["bound"] != 4 * n - 8:
                reasons.append(f"n={n}: min_gap {r['min_gap']} or violations wrong")
            if r["extremal_match"] is not True:
                reasons.append(f"n={n}: extremal_match is {r['extremal_match']}")
        return reasons

    total = sum(ELIGIBLE_CLASSES[n] * pairs(n) for n in range(lo, hi + 1))
    return Round([Op("enumerate", argv, total, check)], serial_argv=[argv])


def extremal_round(seed: int, work: Path, size: str, expected: dict) -> Round:
    n = SIZES[size]["extremal"]
    argv = ["extremal", "--n", str(n)]
    digest = expected.get("stdout_sha256", {}).get("extremal", {}).get(" ".join(argv))
    count = ROOTED_TREES[n - 3]

    def check(stdout: bytes, _stderr: bytes) -> list[str]:
        reasons = _digest_check(digest, stdout)
        lines = stdout.decode("ascii").splitlines()
        summary = json.loads(lines[-1])
        if summary != {"n": n, "count": count, "all_gaps_equal_4n_minus_8": True}:
            reasons.append(f"summary {summary} is wrong")
        members = lines[:-1]
        if len(members) != count or len(set(members)) != count:
            reasons.append(f"{len(members)} member lines ({len(set(members))} distinct), want {count}")
        for code in members:
            gn, edges = from_graph6(code)
            if gn != n or len(edges) != n or not is_connected(gn, edges):
                reasons.append(f"member {code} is not a connected unicyclic graph on {n} vertices")
                break
        return reasons

    return Round([Op("extremal", argv, count * pairs(n), check)], serial_argv=[argv])


def verify_round(seed: int, work: Path, size: str, expected: dict) -> Round:
    copies, large = SIZES[size]["corpus"]
    corpus = verify_corpus(seed, copies, large)
    path = work / "corpus.g6"
    path.write_text(corpus.text)
    argv = ["verify", "--workers", "2", "--file", str(path)]
    record = {"seed": seed, "sha256": corpus.sha256, "categories": corpus.categories}
    digest = None
    if size == "full":
        recorded = expected.get("verify_corpus", {}).get(str(seed))
        if recorded is not None and recorded["sha256"] != corpus.sha256:
            raise RuntimeError(f"corpus for seed {seed} differs from the recorded one")
        digest = expected.get("stdout_sha256", {}).get("verify-stream", {}).get(str(seed))

    def check(stdout: bytes, stderr: bytes) -> list[str]:
        return _digest_check(digest, stdout) + check_verify_payload(corpus, stdout, stderr)

    total = sum(ok * pairs(n) for n, (ok, _rej) in corpus.expected.items())
    serial = ["verify", "--workers", "1", "--file", str(path)]
    return Round([Op("verify", argv, total, check)], record, serial_argv=[serial])


def check_verify_payload(corpus: Corpus, stdout: bytes, stderr: bytes) -> list[str]:
    reasons = []
    reports = {r["n"]: r for r in _json(stdout)["reports"]}
    if sorted(reports) != sorted(corpus.expected):
        return [f"reports for n in {sorted(reports)}, want {sorted(corpus.expected)}"]
    for n, (ok, rejected) in corpus.expected.items():
        r = reports[n]
        if (r["graphs_checked"], r["rejected"]) != (ok, rejected):
            reasons.append(f"n={n}: checked/rejected {r['graphs_checked']}/{r['rejected']}, want {ok}/{rejected}")
        if r["violations"] or r["bound"] != 4 * n - 8:
            reasons.append(f"n={n}: violations {r['violations']}")
        if ok and r["min_gap"] < 4 * n - 8:
            reasons.append(f"n={n}: min_gap {r['min_gap']} below the bound")
    n8 = reports.get(8)
    if n8 is not None and corpus.categories.get("n8_relabelled"):
        if n8["min_gap"] != 24 or n8["extremal_match"] is not True:
            reasons.append("n=8: the equality set does not match the extremal family")
        if len(n8["equality_graphs"]) != ROOTED_TREES[5]:
            reasons.append(f"n=8: {len(n8['equality_graphs'])} equality classes, want {ROOTED_TREES[5]}")
    skipped = f"{corpus.malformed} unparseable line(s) skipped"
    if skipped not in stderr.decode("ascii", "replace"):
        reasons.append(f"stderr does not report {skipped!r}")
    return reasons


def decompose_round(seed: int, work: Path, size: str, expected: dict) -> Round:
    count, n_target = SIZES[size]["decompose"]
    graphs = decompose_set(count, n_target)
    digests = expected.get("stdout_sha256", {}).get("decompose", {}) if size == "full" else {}
    ops = []
    for g in decompose_order(seed, graphs):
        path = work / f"{g.name}.g6"
        path.write_text(g.graph6 + "\n")
        argv = ["decompose", "--pairs", "--file", str(path)]

        def check(stdout: bytes, _stderr: bytes, g=g) -> list[str]:
            return _digest_check(digests.get(g.name), stdout) + check_decompose_payload(g.n, stdout)

        ops.append(Op(g.name, argv, pairs(g.n), check, "SizeLimitError" if g.known_size_limit else None))
    return Round(ops, serial_argv=[op.argv for op in ops])


def check_decompose_payload(n: int, stdout: bytes) -> list[str]:
    d = _json(stdout)
    reasons = []
    if d["n"] != n or d["bound"] != 4 * n - 8:
        reasons.append(f"n/bound {d['n']}/{d['bound']}, want {n}/{4 * n - 8}")
    if d["gap"] < d["bound"]:
        reasons.append(f"gap {d['gap']} below bound {d['bound']}")
    surplus = [p["surplus"] for p in d["pairs"]]
    if len(surplus) != pairs(n) or sum(surplus) != d["gap"] or min(surplus) < 0:
        reasons.append("pair surpluses do not sum to the gap over all pairs")
    return reasons


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path, str, dict], Round]
    # The traced run adds a `--workers 2` pass for the pool wait.
    pooled: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate",
            "szlab enumerate --n 4..7: the exhaustive check; canon and generation bookkeeping "
            "do nearly all the work",
            enumerate_round,
        ),
        Workload(
            "verify-stream",
            "szlab verify --workers 2 on a seeded graph6 corpus; BFS distances and edge "
            "partitions dominate; the only pool and parsing path",
            verify_round,
            pooled=True,
        ),
        Workload(
            "extremal",
            "szlab extremal --n 11: canon on high-symmetry pendant-heavy graphs, where the cost "
            "per call explodes rather than the count",
            extremal_round,
        ),
        Workload(
            "decompose",
            "szlab decompose --pairs per block-tree of ~200 vertices; the only proofs path; "
            "one graph hits the known SizeLimitError defect",
            decompose_round,
        ),
    )
}
