"""Command-line surface: simulate, estimate, experiment, analyze.

Exit codes: 0 on success, 2 on usage errors (bad flags, missing
required arguments), 1 on categorized runtime failures (config, data,
io).  Relative output paths are resolved against $SIDIFF_OUT_DIR when
that variable is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from ._version import __version__
from .dataio import (
    SUGGEST_K_FACTOR,
    TIME_UNITS,
    AnalysisConfig,
    analyze_series,
    load_csv,
    load_paths,
    save_estimate,
    save_paths,
    suggest_K,
    write_bands,
    write_boxplot,
    write_kde,
    write_table1,
)
from .estimate import estimate_pipeline
from .experiments import (
    BAND_MIN_REPLICATES,
    KDE_MIN_VALUES,
    SIMULATORS,
    case_config,
    homogeneous_error_rows,
    run_experiment,
    table1_config,
)
from .rates import _finite_number, _positive_number, _whole_number, pair_from_dict
from .simulate import DRIFT_CORRECTIONS, TimeGrid, simulate_em, simulate_exact

__all__ = ["main", "build_parser"]

OUT_DIR_ENV = "SIDIFF_OUT_DIR"
COUNT_DEFAULTS = {"n_paths": 50, "replicates": 100, "master_seed": 0, "stride": 10}
EXPERIMENT_KEYS = frozenset({*COUNT_DEFAULTS, *"rows cases t0 T delta row_simulator row_drift_correction".split()})
RATE_KEYS = frozenset({"transmission", "noise"})  # of an experiment row and of a simulate rates file


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_json(path: str) -> dict:
    with open(path) as handle:
        try:
            cfg = json.load(handle)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidiff",
        description="Exact simulation and rate inference for a logistic growth diffusion.",
    )
    parser.add_argument("--version", action="version", version=f"sidiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw sample paths and write them as CSV")
    p_sim.add_argument("--config", required=True, help="JSON with transmission/noise rate descriptors")
    p_sim.add_argument("--x0", type=float, required=True, help="initial state, in (0, K)")
    p_sim.add_argument("--K", type=float, required=True, help="carrying capacity")
    p_sim.add_argument("--t0", type=float, default=0.0, help="start time (default 0)")
    p_sim.add_argument("--T", type=float, required=True, help="end time")
    p_sim.add_argument("--delta", type=float, required=True, help="observation step")
    p_sim.add_argument("--paths", type=int, default=50, help="number of sample paths")
    p_sim.add_argument("--seed", type=int, default=0, help="master seed")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument(
        "--simulator",
        choices=SIMULATORS,
        default="exact",
        help="exact transition sampling or Euler-Maruyama (default exact)",
    )
    p_sim.add_argument(
        "--refine", type=int, help="Euler-Maruyama substeps per observation step (--simulator em only; default 1)"
    )
    p_sim.add_argument(
        "--drift-correction",
        choices=DRIFT_CORRECTIONS,
        help="Ito correction used by the Euler-Maruyama drift (--simulator em only; default state)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="fit intensity curves from a path CSV")
    p_est.add_argument("--in", dest="infile", required=True, help="path CSV from `simulate`")
    p_est.add_argument("--K", type=float, required=True, help="carrying capacity")
    p_est.add_argument("--stride", type=int, default=1, help="moment-knot thinning (default 1)")
    p_est.add_argument("--out", required=True, help="output estimate CSV")
    p_est.set_defaults(func=_cmd_estimate)

    p_exp = sub.add_parser("experiment", help="run a replicated experiment batch")
    p_exp.add_argument("--config", required=True, help="experiment JSON (rows and/or cases)")
    p_exp.add_argument("--out-dir", required=True, help="directory for report CSVs")
    p_exp.add_argument("--seed", type=int, default=None, help="override the config master seed")
    p_exp.set_defaults(func=_cmd_experiment)

    p_ana = sub.add_parser("analyze", help="estimate intensities from raw incidence counts")
    p_ana.add_argument("--in", dest="infile", required=True, help="incident counts CSV (time,<loc>,...)")
    p_ana.add_argument("--pop", required=True, help="populations CSV (location,population)")
    p_ana.add_argument("--K", type=float, required=True, help="normalized carrying capacity")
    p_ana.add_argument("--out", required=True, help="output estimate CSV")
    p_ana.add_argument("--stride", type=int, default=1, help="moment-knot thinning (default 1)")
    p_ana.add_argument(
        "--time-unit",
        choices=TIME_UNITS,
        default="index",
        help="report rates per observation interval (index) or per time-column unit",
    )
    p_ana.add_argument(
        "--global-pop",
        action="store_true",
        help="normalize every location by the largest population instead of its own",
    )
    p_ana.add_argument(
        "--window",
        type=float,
        nargs=2,
        metavar=("T_LO", "T_HI"),
        help="keep the cumulated paths at observation times inside [T_LO, T_HI]",
    )
    p_ana.add_argument(
        "--suggest-K",
        action="store_true",
        help=f"also print a heuristic capacity suggestion ({SUGGEST_K_FACTOR:g} x max observation)",
    )
    p_ana.set_defaults(func=_cmd_analyze)
    return parser


def _cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    _refuse_unknown_keys(cfg, RATE_KEYS, "rates file")
    rates = pair_from_dict({**cfg, "capacity": args.K})
    grid = TimeGrid.from_span(args.t0, args.T, args.delta)
    em_flags = {"refine": args.refine, "drift_correction": args.drift_correction}
    em_flags = {key: value for key, value in em_flags.items() if value is not None}
    if args.simulator == "exact":
        if em_flags:
            raise ValueError("--refine and --drift-correction apply to --simulator em only")
        paths = simulate_exact(rates, args.x0, grid, args.paths, args.seed)
    else:
        paths = simulate_em(rates, args.x0, grid, args.paths, args.seed, **em_flags)
    out = _resolve_out(args.out)
    save_paths(paths, out, rates=rates)
    print(f"wrote {paths.n_paths} paths x {grid.n} times to {out}")
    return 0


def _cmd_estimate(args) -> int:
    paths = load_paths(args.infile, capacity=args.K)
    result = estimate_pipeline(paths, stride=args.stride)
    seed = (paths.seed or {}).get("master_seed", 0)
    out = _resolve_out(args.out)
    save_estimate(result, out, capacity=args.K, seed=seed)
    lam, s2 = result.mle
    print(f"wrote estimate to {out} (homogeneous baseline: transmission {lam:.6g}, noise {s2:.6g})")
    return 0


def _refuse_unknown_keys(entry: dict, known: frozenset, where: str) -> None:
    unknown = sorted(set(entry) - known)
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; known keys are {sorted(known)}")


def _experiment_configs(cfg: dict, seed_override: int | None):
    _refuse_unknown_keys(cfg, EXPERIMENT_KEYS, "experiment config")
    counts = cfg if seed_override is None else {**cfg, "master_seed": seed_override}
    # only the type here: ExperimentConfig checks the ranges, naming the field
    shared = {
        key: _whole_number(counts.get(key, default), f"config key {key!r}", -math.inf)
        for key, default in COUNT_DEFAULTS.items()
    }
    if any(key in cfg for key in ("t0", "T", "delta")):
        for key in ("T", "delta"):
            if key not in cfg:
                raise ValueError(f"experiment config grid override needs {key!r}")
        span = (_finite_number(cfg.get(key, 0.0), f"config key {key!r}") for key in ("t0", "T", "delta"))
        shared["grid"] = TimeGrid.from_span(*span)
    rows = cfg.get("rows", [])
    cases = cfg.get("cases", [])
    # too few replicates is refused before any run: rows end in kernel densities, cases in bands
    for key, value, least in (("rows", rows, KDE_MIN_VALUES), ("cases", cases, BAND_MIN_REPLICATES)):
        if not isinstance(value, list):
            raise ValueError(f"experiment config key {key!r} must be a list, not {type(value).__name__}")
        if value and shared["replicates"] < least:
            raise ValueError(f"config key 'replicates' must be at least {least} for {key}")
    if not rows and not cases:
        raise ValueError("experiment config needs a nonempty 'rows' or 'cases' entry")
    row_rates = []
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"each entry of 'rows' must be an object, not {row!r}")
        _refuse_unknown_keys(row, RATE_KEYS, "row")
        if set(row) != RATE_KEYS:
            raise ValueError(f"row {row!r} needs both keys {sorted(RATE_KEYS)}")
        # refused before any run: relative errors divide by the transmission, and the simulators need noise > 0
        transmission = _finite_number(row["transmission"], "config key 'transmission'")
        if transmission == 0.0:
            raise ValueError("config key 'transmission' must be nonzero: relative errors divide by it")
        row_rates.append((transmission, _positive_number(row["noise"], "config key 'noise'")))
    row_configs = [
        table1_config(
            transmission,
            noise,
            simulator=cfg.get("row_simulator", "em"),
            em_drift_correction=cfg.get("row_drift_correction", "constant"),
            **shared,
        )
        for transmission, noise in row_rates
    ]
    case_configs = [case_config(str(name), **shared) for name in cases]
    return row_configs, case_configs, shared["master_seed"]


def _cmd_experiment(args) -> int:
    cfg = _load_json(args.config)
    row_configs, case_configs, master_seed = _experiment_configs(cfg, args.seed)
    out_dir = _resolve_out(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)

    table_rows = []
    reports = []
    for config in row_configs:
        report = run_experiment(config)
        reports.append(report)
        table_rows.extend(homogeneous_error_rows(report))
        _print_done(report)
    if table_rows:
        write_table1(
            table_rows,
            os.path.join(out_dir, "table1.csv"),
            payload=cfg,
            seed=master_seed,
        )
        write_boxplot(reports, os.path.join(out_dir, "boxplot.csv"), seed=master_seed)
        write_kde(reports, os.path.join(out_dir, "kde.csv"), seed=master_seed)

    for config in case_configs:
        report = run_experiment(config)
        write_bands(report, os.path.join(out_dir, f"bands_{config.label}.csv"))
        _print_done(report)
    print(f"reports written to {out_dir}")
    return 0


def _print_done(report) -> None:
    d = report.diagnostics
    print(
        f"{report.config.label}: {d['replicates']} replicates done (clipped cells: {d['clip_count_total']}, "
        f"EM clamps: {d['clamp_count_total']}, paths above 0.99K at the end: {d['saturation_fraction_mean']:.3g})"
    )


def _cmd_analyze(args) -> int:
    table = load_csv(args.infile, args.pop)
    config = AnalysisConfig(
        capacity=args.K,
        stride=args.stride,
        time_unit=args.time_unit,
        global_population=args.global_pop,
        time_window=tuple(args.window) if args.window else None,
    )
    paths, result = analyze_series(table, config)
    if args.suggest_K:
        print(f"# suggested-K={suggest_K(paths):.6g} (heuristic: {SUGGEST_K_FACTOR:g} x max observation)")
    out = _resolve_out(args.out)
    save_estimate(result, out, capacity=args.K, seed=0)
    print(
        f"wrote estimate for {paths.n_paths} locations to {out} "
        f"(clipped cells: {result.diagnostics['clip_count']})"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"sidiff: config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"sidiff: io error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"sidiff: data error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sidiff: io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
