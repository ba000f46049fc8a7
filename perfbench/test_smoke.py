"""Smoke test of the benchmark: every workload, both ways, at a tiny size.

Run with `python3 -m pytest perfbench/test_smoke.py` from the repository root.
"""

from __future__ import annotations

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS

# A call that must be traced on each workload, whatever ran before it in the
# same process: top-level functions reached through szlab.cli.
REACHED_FROM_CLI = {
    "decompose": "proofs.gap_decomposition.self_s",
    "enumerate": "enumeration.generate.self_s",
    "extremal": "extremal.extremal_family.self_s",
    "verify-stream": "layer.enumeration.self_s",
}


@pytest.fixture(scope="module", autouse=True)
def program():
    run._require_program()


def test_tracers_in_sequence_see_cli_calls(tmp_path):
    # The first tracer of a process is the one that imports szlab.cli.
    argv = ["extremal", "--n", "6"]
    for _ in range(2):
        with Tracer() as tracer:
            assert run.run_inprocess(argv).code == 0
        assert tracer.calls["extremal.extremal_family"] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_end_to_end_and_traced(name, tmp_path):
    result, info = run.measure(name, seed=3, seconds=0.1, work=tmp_path, size="tiny")
    assert result["correct"], info["unexpected_failures"]
    assert set(result["metrics"]) == {m[0] for m in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    known = 1 if name == "decompose" else 0
    assert result["failed"] == known * info["rounds"]

    layers, layer_info = run.traced(name, seed=3, work=tmp_path, size="tiny")
    assert layers["correct"], layer_info["unexpected_failures"]
    assert set(layers["metrics"]) == {m[0] for m in run.PER_LAYER}
    assert layers["metrics"]["trace.coverage"]["value"] > 0.5
    assert layers["metrics"][REACHED_FROM_CLI[name]]["value"] > 0
