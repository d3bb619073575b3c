"""Per-layer spans around the public calls into each sidiff module.

The spans are recorded from outside the library: `instrument` replaces
every public function of the eight sidiff modules with a wrapper, in
every module namespace that imported it (so `sidiff.experiments.simulate_em`
and `sidiff.synthetic.simulate_exact` are traced as well as the
definitions themselves), and restores the originals on exit.  The
`EstimateResult` curve methods are traced under one name,
`estimate.curve_eval`, and numpy's `hermgauss`, which
`conditional_moment` looks up at call time, under `model.hermgauss`.

Spans are kept in memory; `layer_table` folds them into per-layer
inclusive time, self time (duration minus the time its child spans
cover) and call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("rates", "model", "simulate", "estimate", "experiments", "dataio", "synthetic", "cli")

# evaluate runs once per quadrature node (about 1e5 calls per tabulated
# increment table); a span per call would dominate the traced run, so
# only its calls are counted and its time stays with the caller
COUNT_ONLY = frozenset({"rates.evaluate"})

CURVE_METHODS = ("lambda_hat", "sigma2_hat_raw", "sigma2_hat_floored", "avg_lambda_hat", "avg_sigma2_hat")

OP = "op"

# file arguments whose sizes feed the computed byte counters
WRITERS = {
    "dataio.save_paths": ("path",),
    "dataio.save_estimate": ("path",),
    "dataio.write_table1": ("path",),
    "dataio.write_bands": ("path",),
    "dataio.write_boxplot": ("path",),
    "dataio.write_kde": ("path",),
    "dataio.save_raw_series": ("counts_path", "populations_path"),
}
READERS = {
    "dataio.load_paths": ("path",),
    "dataio.load_csv": ("counts_path", "populations_path"),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """In-memory span and counter store for one traced run.

    The library is instrumented only inside `op`, so the benchmark's own
    output checks, which call the library too, never show up as layer
    time, and untraced ops run the library unwrapped.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.layers: set[str] = set()
        self._stack: list[int] = []
        self._op: int | None = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self._op))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Instrument the library and open the root span of one op."""
        with instrument(self):
            self._op = op_id
            idx = self.open(OP)
            try:
                yield
            finally:
                self.close(idx)
                self._op = None


def _union_length(intervals) -> float:
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = _union_length(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        )
        out.append(span.end - span.start - covered)
    return out


def layer_table(spans: list[Span], calls: dict[str, int] | None = None) -> dict[str, dict]:
    """Per-name totals in ms: inclusive time, self time and call count.

    Inclusive time counts a span only when no ancestor has the same
    name, so a layer that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    table: dict[str, dict] = defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0})
    for i, span in enumerate(spans):
        row = table[span.name]
        row["calls"] += 1
        row["self_ms"] += selfs[i] * 1e3
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            row["ms"] += (span.end - span.start) * 1e3
    for name, n in (calls or {}).items():
        table[name]["calls"] += n
    return dict(table)


def _file_bytes(arguments: dict, params) -> int:
    total = 0
    for param in params:
        path = os.fspath(arguments[param])
        total += os.path.getsize(path)
        if os.path.exists(path + ".meta.json"):
            total += os.path.getsize(path + ".meta.json")
    return total


def _after_hook(name: str):
    """Counter update run on a traced call's bound arguments and result."""
    if name == "simulate.simulate_em":

        def hook(tracer, arguments, result):
            tracer.counters["simulate.em_clamps"] += result.meta["clamp_count"]
            tracer.counters["simulate.em_path_steps"] += (
                result.n_paths * (result.grid.n - 1) * result.meta["refine"]
            )

        return hook
    if name == "estimate.estimate_pipeline":

        def hook(tracer, arguments, result):
            tracer.counters["estimate.clip_count"] += result.diagnostics["clip_count"]

        return hook
    for table, counter in ((WRITERS, "dataio.bytes_written"), (READERS, "dataio.bytes_read")):
        if name in table:
            params = table[name]

            def hook(tracer, arguments, result, params=params, counter=counter):
                tracer.counters[counter] += _file_bytes(arguments, params)

            return hook
    return None


def _spanning(tracer: Tracer, name: str, fn):
    hook = _after_hook(name)
    signature = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, signature.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


def _counting(tracer: Tracer, name: str, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public sidiff calls for the duration of the block.

    The wrappers record unconditionally; `Tracer.op` is the usual entry.
    """
    import numpy.polynomial.hermite as hermite

    modules = {layer: importlib.import_module(f"sidiff.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("sidiff"), *modules.values()]
    wrappers = {}
    for layer, module in modules.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                make = _counting if name in COUNT_ONLY else _spanning
                wrappers[fn] = make(tracer, name, fn)
                tracer.layers.add(name)

    replaced = []

    def patch(owner, attr, new):
        replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patch(namespace, attr, wrappers[value])
        result_cls = modules["estimate"].EstimateResult
        for attr in CURVE_METHODS:
            patch(result_cls, attr, _spanning(tracer, "estimate.curve_eval", getattr(result_cls, attr)))
        tracer.layers.add("estimate.curve_eval")
        patch(hermite, "hermgauss", _spanning(tracer, "model.hermgauss", hermite.hermgauss))
        tracer.layers.add("model.hermgauss")
        yield tracer
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-work-unit layer metrics: `<layer>.{ms,self_ms,calls}` for every
    traced name, the counters, and the share of op time no layer covers."""
    table = layer_table(tracer.spans, tracer.calls)
    per = 1.0 / max(units, 1)
    out = {}
    for name in sorted(tracer.layers):
        row = table.get(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
        out[f"{name}.ms"] = row["ms"] * per
        out[f"{name}.self_ms"] = row["self_ms"] * per
        out[f"{name}.calls"] = row["calls"] * per
    counters = tracer.counters
    steps = counters["simulate.em_path_steps"]
    out["simulate.em_clamp_frac"] = counters["simulate.em_clamps"] / steps if steps else 0.0
    for name in ("estimate.clip_count", "dataio.bytes_written", "dataio.bytes_read"):
        out[name] = counters[name] * per
    op = table.get(OP)
    out["trace.uncovered_frac"] = op["self_ms"] / op["ms"] if op and op["ms"] > 0 else 0.0
    return out
