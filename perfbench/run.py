"""szlab benchmark: end-to-end runs of the CLI and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--label L]
    python3 perfbench/run.py --record

--trace 0 runs each operation of the workload as a fresh `python -m
szlab.cli` process, in whole rounds, until S seconds have passed, and checks
every output.  After each operation a fresh `import szlab.cli` is timed for
setup_s.  --trace 1 calls `szlab.cli.main(argv)` in-process on the same
inputs with timing spans around every public function of the layer modules,
then runs the workload-independent layer passes (kernels.py).  Either way
the last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

--all runs every workload both ways, prints a table, and writes
BENCHMARK.json and perfbench/results/BENCH_<label>.json with the machine and
provenance record.  --record rewrites perfbench/n8_classes.g6 and the stdout
digests in perfbench/expected.json from the code as it stands; run it only at
a commit whose output is the reference.

Only the standard library is used.  szlab is imported from ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from kernels import kernel_metrics, level_trace, memory_metrics  # noqa: E402
from tracer import LAYERS, Tracer, span_cost  # noqa: E402
from workloads import SIZES, WORKLOADS, Op, load_expected, sha256  # noqa: E402

RUN_SECONDS = 20
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # every run must end within 180 s

# (name, unit, better, bound).  wall_s: median wall time of one szlab process
# that succeeded.  pairs_per_s: vertex pairs covered by the verdicts per
# second of successful operations.  peak_rss_mib: median peak RSS of the CLI
# and the pool workers it reaped.  setup_s: median time a fresh interpreter
# takes to import szlab.cli, sampled once per operation (at least
# SETUP_SAMPLES times).  Failures are counted in "attempted"/"failed".
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("pairs_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

_TIMED = ("canon.canonical_code", "canon.canonical_form", "graphs.all_pairs_distances",
          "formats.parse_graph6", "formats.to_graph6", "graphs.Graph")
_INCLUSIVE = ("invariants.edge_partitions", "graphs.block_decomposition", "extremal.rooted_trees")
_SELF = ("enumeration.generate", "invariants.compute_invariants", "proofs.surplus_map",
         "proofs.gap_decomposition", "extremal.extremal_family")
_KERNELS = ("canon.edgeless_n6", "canon.edgeless_n7", "canon.edgeless_n8", "canon.star_k6",
            "canon.star_k7", "canon.star_k8", "canon.k44", "canon.c16", "canon.random_bip16",
            "canon.extremal11", "invariants.c200", "invariants.random_bip300", "proofs.surplus_map")

PER_LAYER = (
    [(f"{f}.calls", "count", "lower") for f in _TIMED]
    + [(f"{f}.s", "s", "lower") for f in _TIMED + _INCLUSIVE]
    + [(f"{f}.self_s", "s", "lower") for f in _SELF]
    + [
        ("enumeration.canon_calls_per_class", "ratio", "lower"),
        ("enumeration.generate.peak_kib", "KiB", "lower"),
        ("enumeration.verify_conjecture.peak_kib", "KiB", "lower"),
        ("enumeration.pool.wait_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "share", "higher"),
    ]
    + [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"layer.{layer}.share", "share", "lower") for layer in LAYERS]
    + [(f"enumeration.level.m{m:02d}.s", "s", "lower") for m in range(17)]
    + [(f"kernel.{k}.us", "us", "lower") for k in _KERNELS]
    + [("kernel.canon.star.growth", "ratio", "lower"), ("kernel.canon.edgeless.growth", "ratio", "lower")]
)


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _env() -> dict:
    env = dict(os.environ)
    env.pop("SZLAB_WORKERS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    wall: float
    maxrss_mib: float = 0.0


def run_process(args: list[str], work: Path, timeout: float) -> Outcome:
    """Run `python args` to completion through launch.py, killed after `timeout` s."""
    out_path, err_path, report = work / "stdout", work / "stderr", work / "launch.json"
    report.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(report), sys.executable, *args],
            stdout=out, stderr=err, cwd=ROOT, env=_env(), start_new_session=True,
        )
        killer = threading.Timer(timeout, lambda: os.killpg(proc.pid, signal.SIGKILL))
        killer.start()
        try:
            proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            killer.cancel()
    if proc.returncode != 0 or not report.is_file():
        return Outcome(proc.returncode or -1, b"", err_path.read_bytes(), float(timeout))
    rec = json.loads(report.read_text())
    return Outcome(rec["code"], out_path.read_bytes(), err_path.read_bytes(), rec["wall"],
                   rec["maxrss_kib"] / 1024)


def run_inprocess(argv: list[str]) -> Outcome:
    import szlab.cli

    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = szlab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is what the CLI process would die of
        code, crash = 1, traceback.format_exc()
    wall = perf_counter() - t0
    if crash:
        err.write(crash)
    return Outcome(code, out.getvalue().encode("ascii"), err.getvalue().encode("ascii", "replace"), wall)


def classify(op: Op, res: Outcome) -> tuple[str, list[str]]:
    """'ok', 'known' (the failure the seed commit has) or 'failed', with reasons."""
    if res.code == 0:
        try:
            reasons = op.check(res.stdout, res.stderr)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reasons = [f"unreadable output: {exc!r}"]
        return ("failed" if reasons else "ok"), reasons
    tail = res.stderr.decode("ascii", "replace").strip().splitlines()[-1:] or [""]
    if res.code == 1 and op.known_failure and op.known_failure in tail[0]:
        return "known", [tail[0]]
    return "failed", [f"exit {res.code}: {tail[0]}"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []

    def add(self, op: Op, res: Outcome) -> bool:
        status, reasons = classify(op, res)
        self.attempted += 1
        if status != "ok":
            self.failed += 1
            target = self.known if status == "known" else self.unexpected
            target.append(f"{op.label}: {'; '.join(reasons)}")
        return status == "ok"

    def fail_check(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.unexpected.append(reason)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.unexpected,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measure(name: str, seed: int, seconds: float, work: Path, size: str = "full") -> tuple[dict, dict]:
    """End-to-end run with tracing off: whole rounds of fresh szlab processes."""
    start = perf_counter()
    rnd = WORKLOADS[name].build(seed, work, size, load_expected())
    importing = ["-c", "import szlab.cli"]
    run_process(importing, work, RUN_LIMIT_S)  # byte-compile, warm caches
    tally = Tally()
    good: list[tuple[Op, Outcome]] = []
    setup: list[Outcome] = []
    t0 = perf_counter()
    rounds = 0
    while True:
        for op in rnd.ops:
            res = run_process(["-m", "szlab.cli", *op.argv], work, max(5.0, RUN_LIMIT_S - (perf_counter() - start)))
            if tally.add(op, res):
                good.append((op, res))
            # One set-up sample per operation: both are timed over the same stretch.
            setup.append(run_process(importing, work, RUN_LIMIT_S))
        rounds += 1
        if perf_counter() - t0 >= seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_process(importing, work, RUN_LIMIT_S))
    walls = [res.wall for _, res in good] or [0.0]
    metrics = {
        "wall_s": statistics.median(walls),
        "pairs_per_s": sum(op.pairs for op, _ in good) / sum(walls) if good else 0.0,
        "peak_rss_mib": statistics.median([res.maxrss_mib for _, res in good] or [0.0]),
        "setup_s": statistics.median([s.wall for s in setup]),
    }
    units = {n: u for n, u, *_ in END_TO_END}
    info = {
        "rounds": rounds,
        "samples": len(good),
        "setup_samples": len(setup),
        "walls": [res.wall for _, res in good],
        "error_rate": tally.failed / tally.attempted,
        "known_failures": tally.known,
        "unexpected_failures": tally.unexpected,
        **({"corpus": rnd.record} if rnd.record else {}),
    }
    if any(s.code != 0 for s in setup):
        tally.unexpected.append("import szlab.cli failed")
    return tally.result({k: {"value": v, "unit": units[k]} for k, v in metrics.items()}), info


def _inprocess_pass(argvs: list[list[str]], ops: list[Op], tally: Tally) -> float:
    wall = 0.0
    for argv, op in zip(argvs, ops):
        res = run_inprocess(argv)
        tally.add(op, res)
        wall += res.wall
    return wall


def traced(name: str, seed: int, work: Path, size: str = "full") -> tuple[dict, dict]:
    """Per-layer run: in-process passes of the workload, then the layer passes."""
    os.environ.pop("SZLAB_WORKERS", None)
    workload = WORKLOADS[name]
    rnd = workload.build(seed, work, size, load_expected())
    tally = Tally()

    with Tracer() as tracer:
        wall_traced = _inprocess_pass(rnd.serial_argv, rnd.ops, tally)
    summ = tracer.summary(wall_traced)
    pool_wait = 0.0
    if workload.pooled:
        with Tracer() as pool_tracer:
            _inprocess_pass([op.argv for op in rnd.ops], rnd.ops, tally)
        pool_wait = pool_tracer.summary(1.0)["s"].get("enumeration.pool.wait", 0.0)

    m: dict[str, float] = {}
    for f in _TIMED:
        m[f"{f}.calls"] = summ["calls"].get(f, 0)
    for f in _TIMED + _INCLUSIVE:
        m[f"{f}.s"] = summ["s"].get(f, 0.0)
    for f in _SELF:
        m[f"{f}.self_s"] = summ["self_s"].get(f, 0.0)
    for layer in LAYERS:
        self_s = summ["layer_self_s"].get(layer, 0.0)
        m[f"layer.{layer}.self_s"] = self_s
        m[f"layer.{layer}.share"] = self_s / wall_traced
    m["enumeration.pool.wait_s"] = pool_wait
    m["trace.overhead_s"] = summ["spans"] * span_cost()
    m["trace.coverage"] = summ["coverage"]

    level_n, peak_n, kernel_top = SIZES[size]["layers"]
    levels, classes, level_failures = level_trace(level_n)
    m.update(levels)
    for reason in level_failures:
        tally.fail_check(reason)
    m.update(memory_metrics(peak_n))
    m.update(kernel_metrics(seed, kernel_top))

    units = {n: u for n, u, _ in PER_LAYER}
    info = {
        "wall_traced_s": wall_traced,
        "spans": summ["spans"],
        "classes_per_level": classes,
        "known_failures": tally.known,
        "unexpected_failures": tally.unexpected,
    }
    return tally.result({k: {"value": m[k], "unit": units[k]} for k in units}), info


def _workdir() -> Path:
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    return work


def _require_program() -> None:
    if not (SRC / "szlab" / "cli.py").is_file():
        print(f"perfbench: no szlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "commit": commit}


def run_all(seed: int, seconds: float, label: str, work: Path) -> int:
    record = {"machine": _machine(), "seed": seed, "run_seconds": seconds, "workloads": {}}
    ok = True
    rows = []
    for name in WORKLOADS:
        e2e, e2e_info = measure(name, seed, seconds, work)
        layer, layer_info = traced(name, seed, work)
        ok = ok and e2e["correct"] and layer["correct"]
        record["workloads"][name] = {"end_to_end": e2e, "end_to_end_info": e2e_info,
                                     "per_layer": layer, "per_layer_info": layer_info}
        v = {k: e2e["metrics"][k]["value"] for k in e2e["metrics"]}
        rows.append((name, v, e2e_info))
    print(f"{'workload':<14} {'wall_s':>9} {'pairs_per_s':>12} {'peak_rss_mib':>13} "
          f"{'setup_s':>8} {'error_rate':>10} {'samples':>7}")
    for name, v, info in rows:
        print(f"{name:<14} {v['wall_s']:>8.3f}s {v['pairs_per_s']:>10.0f}/s {v['peak_rss_mib']:>9.1f} MiB "
              f"{v['setup_s']:>7.3f}s {info['error_rate']:>10.4f} {info['samples']:>7}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
    out = HERE / "results" / f"BENCH_{label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote BENCHMARK.json and {out.relative_to(ROOT)}")
    return 0 if ok else 1


def record_expected(work: Path, seeds: range) -> int:
    """Write n8_classes.g6 and the stdout digests of the current code."""
    from inputs import N8_CLASSES, decompose_set
    from szlab.enumeration import EnumerationSpec, generate
    from szlab.formats import to_graph6

    classes = [to_graph6(g) for g in generate(EnumerationSpec(n=8))]
    N8_CLASSES.write_text("".join(c + "\n" for c in classes))
    digests: dict = {"enumerate": {}, "extremal": {}, "decompose": {}, "verify-stream": {}}
    corpora = {}
    expected: dict = {}
    for name in ("enumerate", "extremal", "decompose"):
        rnd = WORKLOADS[name].build(0, work, "full", expected)
        for op in rnd.ops:
            res = run_process(["-m", "szlab.cli", *op.argv], work, 600)
            status, reasons = classify(op, res)
            print(name, op.label, status, reasons[:1], file=sys.stderr)
            if status == "ok":
                key = op.label if name == "decompose" else " ".join(op.argv)
                digests[name][key] = sha256(res.stdout)
    for seed in seeds:
        rnd = WORKLOADS["verify-stream"].build(seed, work, "full", expected)
        op = rnd.ops[0]
        res = run_process(["-m", "szlab.cli", *op.argv], work, 600)
        status, reasons = classify(op, res)
        if status != "ok":
            print(f"verify-stream seed {seed}: {reasons}", file=sys.stderr)
            return 1
        digests["verify-stream"][str(seed)] = sha256(res.stdout)
        corpora[str(seed)] = {"sha256": rnd.record["sha256"], "categories": rnd.record["categories"]}
    payload = {
        "about": "stdout sha256 of each operation at the seed commit; decompose graphs that "
                 "fail there (the SizeLimitError defect) have none and get payload checks only",
        "machine": _machine(),
        "stdout_sha256": digests,
        "verify_corpus": corpora,
        "decompose_set": [{"name": g.name, "n": g.n, "known_size_limit": g.known_size_limit}
                          for g in decompose_set()],
    }
    (HERE / "expected.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload both ways")
    parser.add_argument("--label", default="latest", help="name of the --all record")
    parser.add_argument("--record", action="store_true", help="record the reference digests")
    args = parser.parse_args()
    if not (args.all or args.record or args.workload):
        parser.error("one of --workload, --all, --record is required")
    _require_program()
    # Turn SIGTERM into SystemExit so that running szlab processes are killed
    # and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = _workdir()
    try:
        if args.record:
            return record_expected(work, range(64))
        if args.all:
            return run_all(args.seed, args.seconds, args.label, work)
        if args.trace:
            result, info = traced(args.workload, args.seed, work)
        else:
            result, info = measure(args.workload, args.seed, args.seconds, work)
        print(json.dumps(info), file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()


if __name__ == "__main__":
    sys.exit(main())
