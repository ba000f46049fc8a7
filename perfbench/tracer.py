"""In-memory timing spans around szlab's public functions.

`Tracer.install()` replaces every public function of the layer modules with
a timing wrapper, everywhere the function object is bound: in its own module
and under every name other szlab modules imported it as (for example
`szlab.enumeration.canonical_code`).  `Graph` construction is timed through
`Graph.__init__`.  Generator functions get one span per resumption, so the
time a consumer spends between items is not charged to the generator.
Nothing under `src/szlab` changes; `uninstall()` restores every binding, so
tracers installed one after another in a process each see every call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import multiprocessing.pool
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("graphs", "canon", "formats", "invariants", "proofs", "extremal", "enumeration")


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, outermost span of that name)
        self.spans: list = []
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._restore: list = []

    def _open(self, name: str) -> tuple[int, bool]:
        idx = len(self.spans)
        self.spans.append(None)
        outer = self._depth[name] == 0
        self._depth[name] += 1
        self._stack.append(idx)
        return idx, outer

    def _close(self, idx: int, outer: bool, name: str, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self._depth[name] -= 1
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent, outer)

    @contextlib.contextmanager
    def span(self, name: str):
        self.calls[name] += 1
        idx, outer = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, outer, name, t0)

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                return self._resumptions(name, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx, outer = self._open(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, outer, name, t0)

        return wrapper

    def _resumptions(self, name, gen):
        while True:
            idx, outer = self._open(name)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx, outer, name, t0)
            yield item

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        # Import the CLI first: a module first imported while a tracer is
        # installed would keep that tracer's wrappers after uninstall().
        importlib.import_module("szlab.cli")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"szlab.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "szlab" and not modname.startswith("szlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(mod, attr, wrappers[id(obj)])

        graph_cls = importlib.import_module("szlab.graphs").Graph
        self._set(graph_cls, "__init__", self.wrap("graphs.Graph", graph_cls.__init__))

        tracer = self

        class TimedPool(multiprocessing.pool.Pool):
            def map(self, *args, **kwargs):
                with tracer.span("enumeration.pool.wait"):
                    return super().map(*args, **kwargs)

        self._set(importlib.import_module("szlab.enumeration"), "Pool", TimedPool)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self, wall: float) -> dict:
        """Per-name calls, inclusive and self time; per-layer self time; coverage.

        Inclusive time counts only the outermost span of a name, so nested
        calls of one function are not counted twice.  Self time is a span's
        duration minus the durations of its direct children.  Coverage is the
        share of `wall` spent inside top-level spans.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _outer in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl: Counter = Counter()
        self_s: Counter = Counter()
        covered = 0.0
        for i, (name, t0, t1, parent, outer) in enumerate(self.spans):
            if outer:
                incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
            if parent < 0:
                covered += t1 - t0
        layers: Counter = Counter()
        for name, value in self_s.items():
            layers[name.split(".", 1)[0]] += value
        return {
            "calls": dict(self.calls),
            "s": dict(incl),
            "self_s": dict(self_s),
            "layer_self_s": dict(layers),
            "spans": len(self.spans),
            "coverage": covered / wall if wall > 0 else 0.0,
        }


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a plain one (median)."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - t1 - (t1 - t0)) / calls)
    return statistics.median(costs)
