import io
import math

import pytest

import run
from run import BenchError, closed_loop, end_to_end_metrics


class FakeWorkload:
    """Each op takes one second of fake time; ops 1-3 fail in three ways."""

    name = "fake"
    units_per_op = 3

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def op(self, index):
        self.now += 1.0
        if index == 1:
            raise ValueError("op failed")
        return index

    def check(self, index, output):
        if index == 2:
            return ["output wrong"]
        if index == 3:
            raise KeyError("check could not read the output")
        return []


def test_raising_and_failing_ops_each_count_once():
    workload = FakeWorkload()
    log = io.StringIO()
    loop = closed_loop(workload, 0, 5.0, clock=workload.clock, log=log)[None]
    assert loop.attempted == 5
    assert loop.failed == 3
    assert loop.units == 2 * workload.units_per_op
    assert loop.latencies_s == [1.0, math.inf, math.inf, math.inf, 1.0]
    assert loop.next_index == 5
    assert loop.units_per_s == pytest.approx(6 / 5.0)
    text = log.getvalue()
    assert "op 1: op raised" in text and "op 2: output wrong" in text and "op 3: check raised" in text

    metrics = end_to_end_metrics(loop, loop.attempted, loop.failed, setup_s=0.5, peak_rss_mb=10.0)
    assert metrics["ok_frac"] == pytest.approx(2 / 5)
    assert metrics["op_p50_ms"] is None  # the median op failed


def test_loop_runs_at_least_one_op():
    workload = FakeWorkload()
    loop = closed_loop(workload, 0, 0.0, clock=workload.clock, log=io.StringIO())[None]
    assert loop.attempted == 1 and loop.failed == 0 and loop.next_index == 1


def test_traced_and_untraced_ops_interleave():
    from tracing import Tracer

    workload = FakeWorkload()
    tracer = Tracer(clock=workload.clock)
    split = closed_loop(workload, 0, 8.0, (None, tracer, tracer, None), clock=workload.clock, log=io.StringIO())
    assert split[None].attempted == 4 and split[tracer].attempted == 4
    assert [span.op for span in tracer.spans] == [1, 2, 5, 6]  # root spans of the traced ops
    assert split[None].failed == 1 and split[tracer].failed == 2


def test_missing_sources_refuse_to_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SOURCE", tmp_path / "src")
    with pytest.raises(BenchError, match="no sidiff sources"):
        run._import_workloads()


class FakeProbe:
    """Stands in for reference.Sampler: fixed samples, 0.1 s of them per op."""

    def __init__(self, slowdown):
        self.spent = 0.1 if slowdown is not None else 0.0
        self._slowdown = slowdown

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def slowdown(self):
        return self._slowdown


def test_op_times_lose_the_probe_time_and_are_divided_by_its_slowdown():
    workload = FakeWorkload()
    slowdowns = iter([2.0, None, 0.5])  # the second op is too short for a sample
    loop = closed_loop(
        workload, 4, 3.0, clock=workload.clock, log=io.StringIO(), sampler=lambda: FakeProbe(next(slowdowns))
    )[None]
    assert loop.attempted == 3 and loop.slowdowns == [2.0, 2.0, 0.5]
    assert loop.latencies_s == pytest.approx([0.9 / 2.0, 1.0 / 2.0, 0.9 / 0.5])
    assert loop.busy_s == pytest.approx(0.45 + 0.5 + 1.8)


def test_sampler_times_snippets_during_the_block_and_restores_the_handler():
    import signal
    import time

    import reference

    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as probe:
        end = time.perf_counter() + 4 * reference.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 2 <= len(probe.samples) <= 5
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert probe.slowdown() == pytest.approx(probe.spent / len(probe.samples) / reference.SNIPPET_NOMINAL_S)
    assert reference.Sampler().slowdown() is None
