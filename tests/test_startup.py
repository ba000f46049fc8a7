"""What a fresh szlab process imports, and the commands that load the rest on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# The szlab modules a cold `import szlab.cli` loads, and what each command adds to them.
COLD = {"szlab", "szlab.cli", "szlab.errors", "szlab.graphs", "szlab.formats"}
GENERATION = {"szlab.canon", "szlab.invariants", "szlab.extremal", "szlab.enumeration"}
LOADS = {
    "compute": {"szlab.invariants"},
    "canon": {"szlab.canon"},
    "decompose": {"szlab.invariants", "szlab.proofs"},
    "extremal": {"szlab.canon", "szlab.invariants", "szlab.extremal"},
    "enumerate": GENERATION,
    "verify": GENERATION,
}


def _szlab_modules(code: str) -> set[str]:
    return {name for name in _modules(code) if name.split(".")[0] == "szlab"}


def test_cli_import_loads_only_what_every_command_runs():
    assert _szlab_modules("import szlab.cli") == COLD


# szlab._pool is loaded only by a run with more than one worker.
CASES = [(command, 1) for command in sorted(LOADS)] + [("enumerate", 2), ("verify", 2)]


@pytest.mark.parametrize("command, workers", CASES)
def test_each_command_loads_only_its_layers(tmp_path, command, workers):
    c6 = to_graph6(cycle_graph(6))
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(f"{c6}\n{to_graph6(cycle_graph(4))}\n")
    argv = {
        "compute": ["--graph6", c6],
        "canon": ["--graph6", c6],
        "decompose": ["--graph6", c6],
        "extremal": ["--n", "5"],
        "enumerate": ["--n", "4..5"],
        "verify": ["--file", str(corpus)],
    }[command]
    if workers > 1:
        argv += ["--workers", str(workers)]
    run = (
        "import sys\nfrom szlab.cli import main\n"
        f"code = main({[command, *argv]!r})\n"
        "print(code, *sorted(name for name in sys.modules if name.split('.')[0] == 'szlab'))"
    )
    code, *loaded = _python("-c", run).splitlines()[-1].split()
    pool = {"szlab._pool"} if workers > 1 else set()
    assert (code, set(loaded)) == ("0", COLD | LOADS[command] | pool)


def test_one_name_loads_only_its_layer():
    assert _szlab_modules("from szlab import Graph") == {"szlab", "szlab.graphs", "szlab.errors"}


def test_every_exported_name_is_its_home_modules_object():
    run = (
        "import sys, szlab\n"
        "print(*[name for name in szlab.__all__ if getattr(szlab, name) is not "
        "getattr(sys.modules[getattr(szlab, name).__module__], name)])"
    )
    assert _python("-c", run).split() == []


def test_unknown_package_attribute_raises_attribute_error_and_loads_nothing():
    run = "import szlab\ntry:\n    szlab.no_such_name\nexcept AttributeError as exc:\n    print(exc)"
    assert _python("-c", run) == "module 'szlab' has no attribute 'no_such_name'\n"
    assert _szlab_modules("import szlab\nhasattr(szlab, 'no_such_name')") == {"szlab"}


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
