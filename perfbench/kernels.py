"""Layer passes of the traced run that do not depend on the workload.

* canon, invariants and proofs kernels on fixed graph families, in
  microseconds per call;
* the per-edge-level generation trace for n = 8, untraced, checked against
  OEIS;
* tracemalloc peaks of `generate` and `verify_conjecture`, each in its own
  pass because tracemalloc slows allocation-heavy code several times over.
"""

from __future__ import annotations

import random
import statistics
import tracemalloc
from collections import Counter
from time import perf_counter

from inputs import block_tree, is_connected, load_n8_classes, random_connected_bipartite

# Bipartite graphs on n = 1..8 vertices: OEIS A033995 (all) and A005142 (connected).
BIPARTITE_CLASSES = (1, 2, 3, 7, 13, 35, 88, 303)
CONNECTED_BIPARTITE_CLASSES = (1, 1, 1, 3, 5, 17, 44, 182)
LEVEL_MAX_EDGES = 16  # n * n // 4 for n = 8


def _us_per_call(fn, args: list, min_seconds: float = 0.2, max_rounds: int = 5) -> float:
    """Median over rounds of the mean time per call; cheap families get more rounds."""
    rounds = []
    start = perf_counter()
    while len(rounds) < max_rounds and (not rounds or perf_counter() - start < min_seconds):
        t0 = perf_counter()
        for a in args:
            fn(a)
        rounds.append((perf_counter() - t0) / len(args))
    return statistics.median(rounds) * 1e6


def kernel_metrics(seed: int, top: int = 8) -> dict[str, float]:
    """Canon, invariants and proofs kernels; `top` < 8 shrinks them for the smoke test.

    Metric names carry the full-size parameters whatever `top` is.
    """
    from szlab.canon import canonical_code
    from szlab.extremal import extremal_family
    from szlab.graphs import Graph, complete_bipartite, cycle_graph, star_graph
    from szlab.invariants import compute_invariants
    from szlab.proofs import surplus_map

    rng = random.Random(seed)
    canon_families = {
        **{f"edgeless_n{k + 8}": [Graph(top + k, [])] for k in (-2, -1, 0)},
        **{f"star_k{k + 8}": [star_graph(top + k)] for k in (-2, -1, 0)},
        "k44": [complete_bipartite(top // 2, top // 2)],
        "c16": [cycle_graph(2 * top)],
        "random_bip16": [Graph(2 * top, random_connected_bipartite(rng, 2 * top, top)) for _ in range(8)],
        "extremal11": [member.graph for member in extremal_family(top + 3)],
    }
    out = {}
    for name, graphs in canon_families.items():
        out[f"kernel.canon.{name}.us"] = _us_per_call(canonical_code, graphs)
    # Growth per added vertex: canon's factorial blow-up as one number.
    for family, lo, hi in (("star", "star_k6", "star_k8"), ("edgeless", "edgeless_n6", "edgeless_n8")):
        ratio = out[f"kernel.canon.{hi}.us"] / out[f"kernel.canon.{lo}.us"]
        out[f"kernel.canon.{family}.growth"] = ratio**0.5

    bip300 = Graph(top * 300 // 8, random_connected_bipartite(rng, top * 300 // 8, top * 150 // 8))
    out["kernel.invariants.c200.us"] = _us_per_call(compute_invariants, [cycle_graph(top * 25)])
    out["kernel.invariants.random_bip300.us"] = _us_per_call(compute_invariants, [bip300])
    n, edges = block_tree(rng, top * 15)
    out["kernel.proofs.surplus_map.us"] = _us_per_call(surplus_map, [Graph(n, edges)])
    return out


def level_trace(n: int = 8) -> tuple[dict[str, float], dict, list[str]]:
    """Time each edge level of generate(n, all classes) from yield timestamps.

    Returns metrics, the classes per level, and failed checks (the totals
    must match OEIS).  The pass is untraced, so span overhead does not enter
    the level times; canon entry calls per class are counted through the two
    canon names `generate` looks up in szlab.enumeration, which costs one
    counter increment per call.
    """
    import szlab.enumeration as enumeration

    entries = 0

    def counted(fn):
        def call(g):
            nonlocal entries
            entries += 1
            return fn(g)

        return call

    saved = enumeration.canonical_code, enumeration.canonical_form
    enumeration.canonical_code, enumeration.canonical_form = map(counted, saved)
    try:
        spec = enumeration.EnumerationSpec(n=n, min_edges=0, connected=False)
        stamps = []
        t0 = perf_counter()
        for g in enumeration.generate(spec):
            stamps.append((perf_counter(), g))
    finally:
        enumeration.canonical_code, enumeration.canonical_form = saved
    classes = Counter(g.m for _, g in stamps)
    last_yield = {g.m: t for t, g in stamps}
    connected = sum(is_connected(g.n, g.edges) for _, g in stamps)
    metrics = {}
    prev = t0
    for m in range(LEVEL_MAX_EDGES + 1):
        end = last_yield.get(m, prev)
        metrics[f"enumeration.level.m{m:02d}.s"] = end - prev
        prev = end
    total = sum(classes.values())
    metrics["enumeration.canon_calls_per_class"] = entries / total if total else 0.0
    failures = []
    if total != BIPARTITE_CLASSES[n - 1]:
        failures.append(f"generate(n={n}) gave {total} classes, A033995 says {BIPARTITE_CLASSES[n - 1]}")
    if connected != CONNECTED_BIPARTITE_CLASSES[n - 1]:
        failures.append(
            f"generate(n={n}) gave {connected} connected classes, "
            f"A005142 says {CONNECTED_BIPARTITE_CLASSES[n - 1]}"
        )
    return metrics, {str(m): classes[m] for m in sorted(classes)}, failures


def _peak_kib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def memory_metrics(n: int = 7) -> dict[str, float]:
    """tracemalloc peaks: generate(n), and verify_conjecture on the 159 n=8 classes.

    n = 7 keeps the generate pass to a few seconds; under tracemalloc n = 8
    takes close to a minute.
    """
    from szlab.enumeration import EnumerationSpec, generate, verify_conjecture
    from szlab.graphs import Graph

    graphs = [Graph(order, edges) for order, edges in load_n8_classes()]
    return {
        "enumeration.generate.peak_kib": _peak_kib(lambda: list(generate(EnumerationSpec(n=n)))),
        "enumeration.verify_conjecture.peak_kib": _peak_kib(lambda: verify_conjecture(graphs)),
    }
