"""Stdout byte identity as a standing test: every command in `tests/stdout_manifest.json`.

Each test replays its commands in-process, in manifest order, and names the
first whose exit code or stdout sha256 moved; it never shows the output.
`tests/manifest.py` says what the entries are and how to re-record them.
"""

import json
import os
import shlex

import pytest

from .manifest import DECOMPOSE_FORMS, MANIFEST, SLOW_DIGITS, run

_SLOW = pytest.mark.skipif(not os.environ.get("SZLAB_SLOW_TESTS"), reason="set SZLAB_SLOW_TESTS=1 to run")
_ENTRIES = json.loads(MANIFEST.read_text())


def _first_moved(entries) -> str | None:
    for command, (code, digest) in entries:
        now_code, now_digest = run(shlex.split(command))
        # A slow class entry keeps only a prefix of each digest.
        if now_code != code or not now_digest.startswith(digest):
            return f"szlab {command}: exit {code} -> {now_code}, sha256 {digest[:12]} -> {now_digest[:12]}"
    return None


def test_tier1_stdout_matches_the_manifest():
    assert len(_ENTRIES["tier1"]) > 1000
    moved = _first_moved(_ENTRIES["tier1"].items())
    assert moved is None, moved


def test_worker_entries_match_their_single_worker_entries():
    tier1 = _ENTRIES["tier1"]
    pooled = [command for command in tier1 if "--workers" in command]
    assert len(pooled) == 3
    for command in pooled:
        assert tier1[command] == tier1[command.replace(" --workers 2", "")], command


@_SLOW
def test_slow_stdout_matches_the_manifest():
    moved = _first_moved(_ENTRIES["slow"].items())
    assert moved is None, moved
    classes = _ENTRIES["slow_classes"]
    assert len(classes) == 4815
    entries = (
        (shlex.join(["decompose", *form, "--graph6", g6]), (0, digests[i * SLOW_DIGITS : (i + 1) * SLOW_DIGITS]))
        for g6, digests in classes.items()
        for i, form in enumerate(DECOMPOSE_FORMS)
    )
    moved = _first_moved(entries)
    assert moved is None, moved
