"""Command-line surface: simulate, estimate, experiment, analyze.

Exit codes: 0 on success, 2 on usage errors (bad flags, missing
required arguments), 1 on categorized runtime failures (config, data,
io).  Relative output paths are resolved against $SIDIFF_OUT_DIR when
that variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._version import __version__
from .dataio import (
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
    case_config,
    homogeneous_error_rows,
    run_experiment,
    table1_config,
)
from .rates import RatePair, rate_from_dict
from .simulate import TimeGrid, simulate_em, simulate_exact

__all__ = ["main", "build_parser"]

OUT_DIR_ENV = "SIDIFF_OUT_DIR"
EXPERIMENT_KEYS = frozenset(
    "rows cases n_paths replicates master_seed stride t0 T delta row_simulator row_drift_correction".split()
)
ROW_KEYS = frozenset({"transmission", "noise"})


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_json(path: str) -> dict:
    with open(path) as handle:
        cfg = json.load(handle)
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
        choices=("exact", "em"),
        default="exact",
        help="exact transition sampling or Euler-Maruyama (default exact)",
    )
    p_sim.add_argument("--refine", type=int, default=1, help="Euler-Maruyama substeps per observation step")
    p_sim.add_argument(
        "--drift-correction",
        choices=("state", "constant"),
        default="state",
        help="Ito correction used by the Euler-Maruyama drift",
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
    p_exp.add_argument("--workers", type=int, default=1, help="parallel replicate workers")
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
        choices=("index", "calendar"),
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
        help="restrict to observation times inside [T_LO, T_HI]",
    )
    p_ana.add_argument(
        "--suggest-K",
        action="store_true",
        help="also print a heuristic capacity suggestion (1.05 x max observation)",
    )
    p_ana.set_defaults(func=_cmd_analyze)
    return parser


def _cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    for key in ("transmission", "noise"):
        if key not in cfg:
            raise ValueError(f"{args.config}: missing {key!r} rate descriptor")
    rates = RatePair(
        transmission=rate_from_dict(cfg["transmission"]),
        noise=rate_from_dict(cfg["noise"]),
        capacity=args.K,
    )
    grid = TimeGrid.from_span(args.t0, args.T, args.delta)
    if args.simulator == "exact":
        paths = simulate_exact(rates, args.x0, grid, args.paths, args.seed)
    else:
        paths = simulate_em(
            rates,
            args.x0,
            grid,
            args.paths,
            args.seed,
            refine=args.refine,
            drift_correction=args.drift_correction,
        )
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
    shared = {
        "n_paths": int(cfg.get("n_paths", 50)),
        "replicates": int(cfg.get("replicates", 100)),
        "master_seed": int(seed_override if seed_override is not None else cfg.get("master_seed", 0)),
        "stride": int(cfg.get("stride", 10)),
    }
    if any(key in cfg for key in ("t0", "T", "delta")):
        for key in ("T", "delta"):
            if key not in cfg:
                raise ValueError(f"experiment config grid override needs {key!r}")
        shared["grid"] = TimeGrid.from_span(
            float(cfg.get("t0", 0.0)), float(cfg["T"]), float(cfg["delta"])
        )
    rows = cfg.get("rows", [])
    cases = cfg.get("cases", [])
    if not rows and not cases:
        raise ValueError("experiment config needs a nonempty 'rows' or 'cases' entry")
    for row in rows:
        _refuse_unknown_keys(row, ROW_KEYS, "row")
    row_configs = [
        table1_config(
            float(row["transmission"]),
            float(row["noise"]),
            simulator=cfg.get("row_simulator", "em"),
            em_drift_correction=cfg.get("row_drift_correction", "constant"),
            **shared,
        )
        for row in rows
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
        report = run_experiment(config, max_workers=args.workers)
        reports.append(report)
        table_rows.extend(homogeneous_error_rows(report))
        print(f"{config.label}: {config.replicates} replicates done")
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
        report = run_experiment(config, max_workers=args.workers)
        write_bands(report, os.path.join(out_dir, f"bands_{config.label}.csv"))
        print(f"{config.label}: {config.replicates} replicates done")
    print(f"reports written to {out_dir}")
    return 0


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
        print(f"# suggested-K={suggest_K(paths):.6g} (heuristic: 1.05 x max observation)")
    out = _resolve_out(args.out)
    save_estimate(result, out, capacity=args.K, seed=0)
    diag = result.diagnostics
    print(
        f"wrote estimate for {paths.n_paths} locations to {out} "
        f"(clipped cells: {diag['ingest_clip_count']} on ingest, "
        f"{diag['transform_clip_count']} in the transform)"
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
