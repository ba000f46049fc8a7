"""The stdout manifest: `szlab` command lines with the exit code and sha256 of their stdout.

`tests/stdout_manifest.json` holds them.  `tests/test_manifest.py` replays each
command in-process and names the first one whose exit code or stdout moved;
it never prints the output itself.  A deliberate change of output re-records
the manifest, and CHANGES.md names the entries that changed:

    PYTHONPATH=src python -m tests.manifest          # the tier-1 entries
    PYTHONPATH=src python -m tests.manifest --slow   # and the SZLAB_SLOW_TESTS=1 ones

Tier-1 entries ("tier1", command line -> [exit code, sha256]): `enumerate`
for n = 4..9 and `extremal` for n = 4..12; `decompose` in its four forms and
`compute --format csv` on every eligible class (connected, bipartite,
m >= n) with n <= 8; `decompose` on a 200-vertex block tree and on C258,
whose distance fields take two bytes; `verify` over a corpus of good and
bad lines; `canon`; and one command for each error exit code.

Slow entries: `enumerate` for n = 10..11 ("slow", the same layout), and
`decompose` in its four forms on every eligible class with n <= 10
("slow_classes", graph6 -> the first 8 hex digits of each form's sha256, in
DECOMPOSE_FORMS order, each form exiting 0).  4,815 classes at full length
would make the file several times larger for no more certainty that a
change shows.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from szlab import cli
from szlab.enumeration import EnumerationSpec, generate
from szlab.formats import to_graph6

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("stdout_manifest.json")
DECOMPOSE_FORMS = ((), ("--pairs",), ("--format", "csv"), ("--format", "human"))
SLOW_DIGITS = 8


def run(argv: list[str]) -> tuple[int, str]:
    """`szlab argv` in this process, from the repository root: (exit code, sha256 of stdout)."""
    out, here = StringIO(), os.getcwd()
    os.chdir(ROOT)  # file arguments are relative to the repository root
    try:
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        os.chdir(here)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def eligible_classes(top: int) -> list[str]:
    """graph6 of every connected bipartite class with m >= n, for n = 1..top, in generation order."""
    return [to_graph6(g) for n in range(1, top + 1) for g in generate(EnumerationSpec(n))]


def decompose_commands(source: list[str]) -> list[list[str]]:
    return [["decompose", *form, *source] for form in DECOMPOSE_FORMS]


def tier1_commands() -> list[list[str]]:
    commands = [
        ["enumerate", "--n", "4..9"],
        ["enumerate", "--n", "4..9", "--format", "csv"],
        ["extremal", "--n", "4..12", "--format", "json"],
        ["extremal", "--n", "4..7"],
        ["verify", "--file", "tests/data/verify_corpus.g6"],
        ["verify", "--file", "tests/data/verify_corpus.g6", "--format", "csv"],
        # A worker pool must not move a byte: each of these equals its entry without --workers.
        ["enumerate", "--n", "4..9", "--workers", "2"],
        ["verify", "--file", "tests/data/verify_corpus.g6", "--workers", "2"],
        ["verify", "--file", "tests/data/verify_corpus.g6", "--format", "csv", "--workers", "2"],
        ["canon", "--edges", "6 6\\n0 1\\n1 2\\n2 3\\n3 4\\n4 5\\n0 5"],
        ["compute", "--file", "tests/data/c258.g6"],
        # Each error exit code: a graph above canon's size limit and a malformed
        # record (2), a disconnected graph (3), a tree (4, m < n), and n above
        # the enumeration limit (5).
        ["canon", "--file", "tests/data/blocktree200.g6"],
        ["compute", "--graph6", "!!"],
        ["compute", "--graph6", "Gl?GGS"],
        ["decompose", "--graph6", "DhC"],
        ["enumerate", "--n", "13"],
    ]
    for path in ("tests/data/blocktree200.g6", "tests/data/c258.g6"):
        commands += decompose_commands(["--file", path])
    for g6 in eligible_classes(8):
        commands += decompose_commands(["--graph6", g6])
        commands.append(["compute", "--format", "csv", "--graph6", g6])
    return commands


def slow_commands() -> list[list[str]]:
    return [["enumerate", "--n", "10..11"], ["enumerate", "--n", "10..11", "--format", "csv"]]


def slow_class_digests(g6: str) -> str:
    digests = []
    for argv in decompose_commands(["--graph6", g6]):
        code, digest = run(argv)
        if code != 0:
            raise SystemExit(f"szlab {shlex.join(argv)} exited {code}")
        digests.append(digest[:SLOW_DIGITS])
    return "".join(digests)


def record(slow: bool) -> dict:
    """Run every command and return the manifest; without `slow`, keep the recorded slow entries."""
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    manifest = {"tier1": {shlex.join(argv): list(run(argv)) for argv in tier1_commands()}}
    if slow:
        manifest["slow"] = {shlex.join(argv): list(run(argv)) for argv in slow_commands()}
        manifest["slow_classes"] = {g6: slow_class_digests(g6) for g6 in eligible_classes(10)}
    else:
        manifest.update((key, old[key]) for key in ("slow", "slow_classes") if key in old)
    return manifest


if __name__ == "__main__":
    manifest = record("--slow" in sys.argv[1:])
    # One entry a line, so that a re-recording diffs by entry.
    sections = (
        f"{json.dumps(key)}: {{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()) + "\n}"
        for key, entries in manifest.items()
    )
    MANIFEST.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"{MANIFEST.name}: " + ", ".join(f"{key} {len(v)}" for key, v in manifest.items()))
