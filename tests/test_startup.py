"""What a fresh szlab process imports, and the commands that load the rest on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

from szlab.formats import to_graph6
from szlab.graphs import cycle_graph

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses (with inspect) and multiprocessing are not used at all; the
# worker pool (szlab._pool) only with --workers > 1, fractions (with decimal)
# only for the revised Szeged index, csv only for --format csv.
DEFERRED = {"dataclasses", "inspect", "multiprocessing", "szlab._pool", "fractions", "decimal", "csv"}


def _python(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules(code: str) -> set[str]:
    return set(_python("-c", f"{code}\nimport sys\nprint(*sys.modules)").split())


def test_cli_import_loads_no_deferred_module():
    # Against a bare interpreter, so modules a site hook loads do not count.
    added = _modules("import szlab.cli") - _modules("pass")
    assert "szlab.cli" in added
    assert sorted(added & DEFERRED) == []


def test_fresh_process_computes_revised_szeged():
    out = _python("-m", "szlab.cli", "compute", "--graph6", to_graph6(cycle_graph(5)), "--format", "human")
    assert "revised szeged  = 125/4\n" in out


def test_fresh_process_writes_csv():
    out = _python("-m", "szlab.cli", "compute", "--graph6", to_graph6(cycle_graph(5)), "--format", "csv")
    assert out.splitlines() == ["u,v,n_u,n_v,n_0"] + ["{},{},2,2,1".format(*e) for e in cycle_graph(5).edges]


def test_fresh_process_runs_a_pool():
    # Forked workers: no multiprocessing, and no thread started.
    run = (
        "import sys, threading\n"
        "started = []\n"
        "threading.Thread.start = lambda self, start=threading.Thread.start: started.append(self) or start(self)\n"
        "from szlab.cli import main\n"
        "main(['enumerate', '--n', '4..6', '--workers', '2'])\n"
        "print(len(started), *sorted({'multiprocessing', 'szlab._pool'} & set(sys.modules)))"
    )
    *report, last = _python("-c", run).splitlines()
    assert [r["n"] for r in json.loads("\n".join(report))["reports"]] == [4, 5, 6]
    assert last == "0 szlab._pool"
