"""Each demo runs to completion and prints exactly its recorded output.

Demo 4 reports its own wall time on a `done in` line, which is dropped
before hashing.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_indices_on_named_graphs.py": "ceee2b20033c9b957039a3a496cfddf03104d450267cc91fd661e0fa56ddf07b",
    "02_pair_surpluses_and_blocks.py": "2c3ee03f7296e2da8f677706ab8af680f959a1ea2d60f9b990353eada3f0c413",
    "03_extremal_family.py": "6340884f069f99378d07dfe6b0b72638a64c7fa0bcdf928a283852a9604e9b8e",
    "04_exhaustive_verification.py": "a8587abbee022ba7cf3088b8441f81cc2267e882ff978a8026f8f0be8c15208e",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    lines = proc.stdout.splitlines(keepends=True)
    stdout = b"".join(line for line in lines if not line.startswith(b"done in"))
    assert hashlib.sha256(stdout).hexdigest() == STDOUT_SHA256[name]
