"""Layer spans recorded from outside the program, for the traced benchmark run.

Each layer is one ``graphasym`` module.  ``Tracer.install`` wraps every
function the module defines and every method of its classes (at class
level, so calls through instances are seen), then rebinds each wrapper in
every ``graphasym`` module namespace, and in module-level dicts, that held
the original: ``from .graphs import connected_counts`` copies the reference,
so patching only the defining module would miss most calls.  ``_poly`` is
not a layer; its time counts toward the callers.  Wrappers of ``lru_cache``d
functions keep ``cache_info`` and ``cache_clear``.

A span is (name, start, end, parent index).  Self time of a layer is the
total duration of its spans minus the parts covered by their child spans.
Work the tracer does for its own counters runs under a ``trace`` span, so
it is charged to no layer.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("graphs", "series", "symbolic", "ramanujan", "treepoly", "assembly", "fitting", "errata", "cli")

# dunders worth a span; the others are hashing, comparison and printing glue
_DUNDERS = frozenset({"__add__", "__sub__", "__mul__", "__truediv__", "__neg__"})

# the per-layer metrics the traced run reports, with their units
METRICS = {
    "ramanujan.q_evals": "count",
    "ramanujan.q_evals_per_n": "ratio",
    "ramanujan.q_bits": "count",
    "ramanujan.self_s": "s",
    "treepoly.self_s": "s",
    "treepoly.t_value_calls": "count",
    "treepoly.t_value_hit_ratio": "ratio",
    "graphs.table_builds": "count",
    "graphs.table_cells": "count",
    "graphs.self_s": "s",
    "series.mul_calls": "count",
    "series.self_s": "s",
    "symbolic.self_s": "s",
    "symbolic.evaluate_calls": "count",
    "assembly.self_s": "s",
    "assembly.exact_counts": "count",
    "assembly.evaluate_s": "s",
    "fitting.qr_s": "s",
    "fitting.self_s": "s",
    "fitting.points": "count",
    "errata.self_s": "s",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
COUNTS = tuple(name for name, unit in METRICS.items() if unit == "count")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.q_ns: set[int] = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        # keyed by id of the original, which each wrapper's closure keeps alive
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"graphasym.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj) or (
                    callable(obj) and hasattr(obj, "cache_info")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "graphasym" and not name.startswith("graphasym."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        if hook is None:
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (name, t0, t1, parent)
        else:
            misses = getattr(fn, "cache_info", None)

            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                before = misses().misses if misses else 0
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (name, t0, t1, parent)
                missed = misses is None or misses().misses > before
                if missed:
                    b0 = clock()
                    hook(self, args, result)
                    spans.append(("trace.counters", b0, clock(), parent))
                return result

        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Raw per-layer totals of the spans so far; `metrics` derives the rest."""
        n = len(self.spans)
        child = [0.0] * n
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: Counter = Counter()
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            self_s[name.split(".", 1)[0]] += t1 - t0 - child[i]
            calls[name] += 1
            # time in a function, counting an outermost call only
            if parent < 0 or self.spans[parent][0] != name:
                inclusive[name] += t1 - t0
        tv = _cache_info("treepoly", "t_value")
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({
            "ramanujan.q_evals": self.counts["q_evals"],
            "ramanujan.q_bits": self.counts["q_bits"],
            "treepoly.t_value_calls": tv.hits + tv.misses if tv else 0,
            "treepoly.t_value_hits": tv.hits if tv else 0,
            "graphs.table_builds": self.counts["table_builds"],
            "graphs.table_cells": self.counts["table_cells"],
            "series.mul_calls": calls["series.Series.__mul__"],
            "symbolic.evaluate_calls": calls["symbolic.AsymSeries.evaluate"],
            "assembly.exact_counts": calls["assembly.exact_count_via_t"],
            "assembly.evaluate_s": inclusive["assembly.Decomposition.evaluate"],
            "fitting.qr_s": inclusive["fitting._qr_solve"],
            "fitting.points": self.counts["points"],
            "trace.spans": n,
            "q_ns": sorted(self.q_ns),
        })
        return out

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")


def _cache_info(layer: str, attr: str):
    fn = getattr(importlib.import_module(f"graphasym.{layer}"), attr, None)
    return fn.cache_info() if hasattr(fn, "cache_info") else None


# -- counters kept at layer boundaries; each runs on a computed result only --

def _q_exact(tracer: Tracer, args, result) -> None:
    n = args[0]
    tracer.counts["q_evals"] += 1
    tracer.counts["q_bits"] += (result.numerator * (n ** n // result.denominator)).bit_length()
    tracer.q_ns.add(n)


def _q_scaled(tracer: Tracer, args, result) -> None:
    tracer.counts["q_evals"] += 1
    tracer.counts["q_bits"] += result.bit_length()
    tracer.q_ns.add(args[0])


def _connected_rows(tracer: Tracer, args, result) -> None:
    n_max, w_cap = args
    tracer.counts["table_builds"] += 1
    tracer.counts["table_cells"] += (n_max + 1) * (w_cap + 1)


def _qr_solve(tracer: Tracer, args, result) -> None:
    tracer.counts["points"] += len(args[0])


_HOOKS = {
    "ramanujan.q_exact": _q_exact,
    "treepoly._q_scaled": _q_scaled,
    "graphs.connected_rows": _connected_rows,
    "fitting._qr_solve": _qr_solve,
}


def metrics(parts: list[dict]) -> dict:
    """Per-layer metrics of one job from the summaries of its processes."""
    out = {
        key: sum(p[key] for p in parts)
        for key in parts[0] if key != "q_ns"
    }
    distinct_n = len(set().union(*(p["q_ns"] for p in parts)))
    out["ramanujan.q_evals_per_n"] = out["ramanujan.q_evals"] / distinct_n if distinct_n else 0.0
    hits = out.pop("treepoly.t_value_hits")
    calls = out["treepoly.t_value_calls"]
    out["treepoly.t_value_hit_ratio"] = hits / calls if calls else 0.0
    return out


def median_metrics(jobs: list[dict]) -> dict:
    """Median of each timing over traced jobs; counts must agree exactly."""
    out = {}
    for key in jobs[0]:
        values = [j[key] for j in jobs]
        if key in COUNTS:
            if len(set(values)) != 1:
                raise ValueError(f"count {key} differs between traced jobs: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out
