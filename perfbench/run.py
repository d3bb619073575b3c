"""Benchmark runner for sidiff: one workload per process, closed loop.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace 0

One caller runs ops back to back; each op starts when the previous one
ends.  After set-up and one discarded warm-up op, ops run until
`--seconds` have passed, and every op's output is checked.  The last
line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics named in
BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`.  A traced run interleaves untraced and traced ops, so it
also reports the tracing overhead.

The machine's speed drifts with load from outside the process, so
untraced times are reported at a fixed reference speed: a short fixed
snippet (reference.py) is timed every 50 ms of each op, its time is
taken out of the op's, and the rest is divided by the op's slowdown,
the snippets' mean time over their nominal time.  Set-up times are
divided by the slowdown of snippets timed right after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# BLAS and OpenMP pools pinned to one thread, so the load is one process
# with one compute thread; must be set before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

# set-up is timed in this process and in this many fresh interpreters;
# setup_s is the median
SETUP_PROBES = 2

WORKLOAD_TIMEOUT_S = 900


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class LoopResult:
    """Closed-loop totals.  A failed op's latency is recorded as inf."""

    attempted: int = 0
    failed: int = 0
    units: int = 0
    busy_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    slowdowns: list[float] = field(default_factory=list)
    next_index: int = 0

    @property
    def units_per_s(self) -> float:
        return self.units / self.busy_s if self.busy_s > 0.0 else 0.0


def run_op(workload, index: int, tracer=None, clock=time.perf_counter, log=sys.stderr, sampler=None):
    """Time one op (checks excluded); return (seconds, problems, probe).

    With `sampler` (a factory of reference.Sampler-like probes), a probe
    runs while the op runs and its `spent` time is taken out of the
    op's time.
    """
    scope = tracer.op(index) if tracer is not None else contextlib.nullcontext()
    probe = sampler() if sampler is not None else None
    start = clock()
    try:
        with scope, probe if probe is not None else contextlib.nullcontext():
            output = workload.op(index)
    except Exception:
        elapsed = clock() - start
        problems = ["op raised:\n" + traceback.format_exc()]
    else:
        elapsed = clock() - start
        try:
            problems = workload.check(index, output)
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc()]
    if probe is not None:
        elapsed -= probe.spent
    for problem in problems:
        print(f"{workload.name} op {index}: {problem}", file=log)
    return elapsed, problems, probe


def closed_loop(
    workload, first: int, seconds: float, tracers=(None,), clock=time.perf_counter, log=sys.stderr, sampler=None
):
    """Run ops first, first+1, ... until `seconds` have passed (at least one).

    Op i runs under tracers[(i - first) % len(tracers)], None meaning
    untraced.  Returns one LoopResult per distinct tracer, keyed by it.
    With `sampler`, each op's time is divided by its probe's slowdown;
    an op too short for a sample takes the last slowdown measured
    (1.0 before the first).
    """
    results = {tracer: LoopResult() for tracer in tracers}
    index = first
    slowdown = 1.0
    start = clock()
    while True:
        tracer = tracers[(index - first) % len(tracers)]
        elapsed, problems, probe = run_op(workload, index, tracer, clock, log, sampler)
        result = results[tracer]
        if probe is not None:
            slowdown = probe.slowdown() or slowdown
            result.slowdowns.append(slowdown)
            elapsed /= slowdown
        index += 1
        result.attempted += 1
        result.busy_s += elapsed
        if problems:
            result.failed += 1
            result.latencies_s.append(math.inf)
        else:
            result.units += workload.units_per_op
            result.latencies_s.append(elapsed)
        if clock() - start >= seconds:
            break
    for result in results.values():
        result.next_index = index
    return results


def end_to_end_metrics(timed: LoopResult, attempted: int, failed: int, setup_s: float, peak_rss_mb: float):
    """The five end-to-end metrics; ok_frac counts every op of the run."""
    p50 = statistics.median(timed.latencies_s)
    return {
        "setup_s": setup_s,
        "units_per_s": timed.units_per_s,
        "op_p50_ms": p50 * 1e3 if math.isfinite(p50) else None,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _import_workloads():
    """Import the library from this checkout's src/ and the workload module."""
    if not (SOURCE / "sidiff" / "__init__.py").is_file():
        raise BenchError(f"no sidiff sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import sidiff

    if Path(sidiff.__file__).resolve().parent != (SOURCE / "sidiff").resolve():
        raise BenchError(f"imported sidiff from {sidiff.__file__}, not from {SOURCE}")
    import workloads

    return workloads


def set_up(name: str, seed: int):
    """Import, input generation and config construction.

    Returns (workload, seconds at reference speed): the set-up time is
    divided by the slowdown of reference snippets timed right after it.
    """
    start = time.perf_counter()
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[name](seed, str(OUT_DIR))
    elapsed = time.perf_counter() - start
    import reference

    return workload, elapsed / reference.slowdown()


def _probe_setup(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _read_text(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def machine_record() -> dict:
    cpuinfo = _read_text("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read_text(f"{base}/{entry}/level")
        kind = _read_text(f"{base}/{entry}/type")
        size = _read_text(f"{base}/{entry}/size")
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)


def run_workload(args, spec: dict) -> dict:
    _pin_threads()
    workload, setup_own = set_up(args.workload, args.seed)
    setups = [setup_own]
    if not args.trace:
        setups += [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    import reference
    import tracing

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, serial (max_workers=1)",
        "sizes": workload.sizes(),
        "units_per_op": workload.units_per_op,
        "machine": machine_record(),
        "setup_samples_s": setups,
    }
    print("run record: " + json.dumps(record, sort_keys=True))

    warmup = closed_loop(workload, 0, 0.0)[None]  # checked, not timed
    if args.trace:
        tracer = tracing.Tracer()
        # untraced and traced ops interleave, so both see the same machine
        # load; period 4 keeps both halves balanced over the workloads'
        # 2- and 3-op input cycles, and the first op is always traced
        split = closed_loop(workload, warmup.next_index, args.seconds, (tracer, None, None, tracer))
        untraced, traced = split[None], split[tracer]
        loops = (warmup, untraced, traced)
        metrics = tracing.layer_metrics(tracer, traced.units)
        metrics["trace.untraced_units_per_s"] = untraced.units_per_s
        metrics["trace.units_per_s"] = traced.units_per_s
        if untraced.units_per_s > 0.0:
            metrics["trace.overhead_frac"] = 1.0 - traced.units_per_s / untraced.units_per_s
        else:
            metrics["trace.overhead_frac"] = 0.0
        names = spec["per_layer"]
        missing = [m["name"] for m in names if m["name"] not in metrics]
        if missing:
            raise BenchError(f"per-layer metrics the tracer does not produce: {missing}")
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace"
        _write_json(stem.with_suffix(".json"), {"record": record, "layers": metrics, "ops": traced.attempted})
        with open(stem.with_suffix(".spans.jsonl"), "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps([span.name, span.start, span.end, span.parent, span.op]) + "\n")
        _print_layers(metrics)
    else:
        timed = closed_loop(workload, warmup.next_index, args.seconds, sampler=reference.Sampler)[None]
        loops = (warmup, timed)
        attempted = warmup.attempted + timed.attempted
        failed = warmup.failed + timed.failed
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end_metrics(timed, attempted, failed, statistics.median(setups), rss)
        names = spec["end_to_end"]
        _write_json(
            OUT_DIR / f"{args.workload}-seed{args.seed}.json",
            {
                "record": record,
                "metrics": metrics,
                "timed_ops": timed.attempted,
                "latencies_s": timed.latencies_s,
                "slowdowns": timed.slowdowns,
            },
        )
        slow = timed.slowdowns
        print(
            f"{args.workload}: {timed.attempted} timed ops, fail_frac {failed / attempted:g}, "
            f"reference slowdown {min(slow):.3f}-{max(slow):.3f} (median {statistics.median(slow):.3f})"
        )

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for m in names:
        print(f"  {m['name']:<44} {metrics[m['name']]!s:>24} {m['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }


def _print_layers(layers: dict) -> None:
    rows = sorted((v, k[: -len(".self_ms")]) for k, v in layers.items() if k.endswith(".self_ms"))
    print("self time per work unit, largest first:")
    for value, name in reversed(rows):
        if value > 0.0:
            print(f"  {name:<40} {value:12.3f} ms  ({layers[name + '.calls']:g} calls)")
    print(f"  share of op time outside any layer span: {layers['trace.uncovered_frac']:.4f}")
    print(f"  tracing overhead: {layers['trace.overhead_frac']:.4f} of untraced units_per_s")


def run_all(args, spec: dict) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=WORKLOAD_TIMEOUT_S,
        )  # fmt: skip
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for metric, entry_value in result["metrics"].items():
            print(f"  {metric:<44} {entry_value['value']!s:>24} {entry_value['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry_value
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; every op's master seed derives from it")
    parser.add_argument("--seconds", type=float, default=None, help="measured time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            _pin_threads()
            print(repr(set_up(args.workload, args.seed)[1]))
            return 0
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            result = run_all(args, spec)
        elif args.workload in names:
            result = run_workload(args, spec)
        else:
            raise BenchError(f"unknown workload {args.workload!r}; expected one of {names} or 'all'")
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
