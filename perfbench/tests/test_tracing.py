import json
import math

import numpy as np
import pytest

import sidiff.simulate
from run import SPEC_PATH
from tracing import Span, Tracer, layer_metrics, layer_table, self_times


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("c", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_links_parents_and_ops():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))
    with tracer.op(7):
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        tracer.close(inner)
        tracer.close(outer)
        sibling = tracer.open("sibling")
        tracer.close(sibling)
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("op", None, 7),
        ("outer", 0, 7),
        ("inner", 1, 7),
        ("sibling", 0, 7),
    ]
    table = layer_table(tracer.spans)
    assert table["op"]["ms"] == pytest.approx(7000.0)
    assert table["op"]["self_ms"] == pytest.approx(7000.0 - 3000.0 - 1000.0)
    assert table["outer"]["self_ms"] == pytest.approx(2000.0)


def test_reentrant_layer_inclusive_time_counted_once():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("f", 1.0, 9.0, 0, 0),
        Span("f", 2.0, 5.0, 1, 0),
    ]
    row = layer_table(spans)["f"]
    assert row["ms"] == pytest.approx(8000.0)
    assert row["self_ms"] == pytest.approx(8000.0)
    assert row["calls"] == 2


def test_ops_trace_imported_names_and_restore_them():
    original = sidiff.simulate.simulate_exact
    rates = sidiff.RatePair(sidiff.constant(0.4), sidiff.constant(0.1), 200.0)
    grid = sidiff.TimeGrid(0.0, 0.01, 101)
    tracer = Tracer()
    with tracer.op(0):
        assert sidiff.simulate_exact is not original
        paths = sidiff.simulate_exact(rates, 20.0, grid, 3, 1)
        sidiff.estimate_pipeline(paths, stride=10)
    assert sidiff.simulate.simulate_exact is original
    assert sidiff.simulate_exact is original
    sidiff.simulate_exact(rates, 20.0, grid, 3, 1)  # outside an op: not recorded

    names = [span.name for span in tracer.spans]
    by_name = {span.name: i for i, span in enumerate(tracer.spans)}
    assert names.count("simulate.derive_path_seed") == 3
    assert tracer.spans[by_name["rates.increment_table"]].parent == by_name["simulate.simulate_exact"]
    assert tracer.spans[by_name["model.x_to_y"]].parent == by_name["estimate.transform_paths"]
    assert tracer.calls["rates.evaluate"] > 0
    metrics = layer_metrics(tracer, units=1)
    assert metrics["estimate.clip_count"] == 0.0
    assert 0.0 <= metrics["trace.uncovered_frac"] < 1.0
    assert math.isclose(metrics["simulate.derive_path_seed.calls"], 3.0)


def test_every_listed_per_layer_metric_is_produced():
    with open(SPEC_PATH) as handle:
        listed = {m["name"] for m in json.load(handle)["per_layer"]}
    tracer = Tracer()
    with tracer.op(0):
        pass
    produced = set(layer_metrics(tracer, units=1))
    run_level = {"trace.untraced_units_per_s", "trace.units_per_s", "trace.overhead_frac"}
    assert listed - run_level <= produced


def test_hermgauss_is_traced_where_conditional_moment_looks_it_up():
    law = sidiff.TransitionLaw(sidiff.RatePair(sidiff.constant(0.4), sidiff.constant(0.1), 1.0), 0.2, 0.0)
    tracer = Tracer()
    with tracer.op(0):
        sidiff.conditional_moment(law, 1, 1.0)
    assert np.polynomial.hermite.hermgauss.__module__ == "numpy.polynomial.hermite"
    calls = layer_table(tracer.spans)["model.hermgauss"]["calls"]
    assert calls >= 2
    assert layer_metrics(tracer, units=1)["model.hermgauss.calls"] == calls
