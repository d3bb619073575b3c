"""File formats: path bundles, estimate tables, report CSVs, raw counts.

Everything written here is deterministic: no timestamps, floats
formatted by shortest round-trip repr, dict keys sorted in JSON
sidecars, and every CSV opens with one metadata comment line

    # config-hash=<12 hex> seed=<int> version=<semver>

so a rerun can be checked byte for byte.  Writes are atomic
(temp file in the target directory, then rename), so a crash never
leaves a half-written file behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .estimate import CLIP_EPS, EstimateResult, estimate_pipeline
from .experiments import EM_REFINE, ExperimentReport, boxplot_stats, kde, pointwise_band, standardize
from .rates import pair_to_dict
from .simulate import PathSet, TimeGrid

__all__ = [
    "RawSeriesTable",
    "AnalysisConfig",
    "config_hash",
    "metadata_line",
    "save_paths",
    "load_paths",
    "save_estimate",
    "write_table1",
    "write_bands",
    "write_boxplot",
    "write_kde",
    "load_csv",
    "save_raw_series",
    "restrict_window",
    "cumulate_normalize",
    "suggest_K",
    "analyze_series",
]

GRID_UNIFORM_RTOL = 1e-8
TIME_UNITS = ("index", "calendar")
SUGGEST_K_FACTOR = 1.05  # suggest_K's inflation of the largest observation


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(
    path: str, header: list[str], columns: list, meta: tuple[dict, int] | None = None
) -> None:
    """Atomically write equal-length columns as one CSV, one row per index.

    A list column holds ready-made strings; any other column is a float
    array, written cell by cell as the shortest round-trip repr.
    meta=(payload, seed) puts the metadata comment line first.
    """
    # float cells are formatted lazily, row by row, so the strings of a
    # whole table are never alive at once
    cells = [
        col if isinstance(col, list) else map(repr, np.asarray(col, dtype=float).tolist())
        for col in columns
    ]
    lines = [metadata_line(*meta)] if meta is not None else []
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*cells)))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def config_hash(payload: dict) -> str:
    """12-hex digest of the canonical JSON form of a config payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def metadata_line(payload: dict, seed: int) -> str:
    return f"# config-hash={config_hash(payload)} seed={int(seed)} version={__version__}"


def _grid_from_times(times: np.ndarray) -> TimeGrid:
    diffs = np.diff(times)
    if times.size < 2 or np.any(diffs <= 0.0):
        raise ValueError("times must be strictly increasing with >= 2 entries")
    delta = float(diffs.mean())
    if np.any(np.abs(diffs - delta) > GRID_UNIFORM_RTOL * max(delta, 1.0)):
        raise ValueError("times are not uniformly spaced")
    return TimeGrid(t0=float(times[0]), delta=delta, n=int(times.size))


# ---------------------------------------------------------------------------
# path bundles


def save_paths(paths: PathSet, path: str, *, rates=None) -> None:
    """Write a path bundle as CSV plus a JSON sidecar.

    CSV: metadata comment, then header t,path_1,...,path_d, one row per
    grid time.  The sidecar <path>.meta.json carries capacity, space,
    seed record and, when given, the generating rate descriptors, so
    the bundle reloads without external knowledge.
    """
    paths.validate()
    sidecar = {
        "capacity": paths.capacity,
        "space": paths.space,
        "seed": paths.seed,
        "meta": {k: v for k, v in paths.meta.items()},
        "rates": pair_to_dict(rates) if rates is not None else None,
    }
    seed = (paths.seed or {}).get("master_seed", 0)
    header = ["t", *(f"path_{i + 1}" for i in range(paths.n_paths))]
    _write_csv(path, header, [paths.grid.times, *paths.values], meta=(sidecar, seed))
    _write_json(path + ".meta.json", sidecar)


def load_paths(path: str, capacity: float | None = None) -> PathSet:
    """Inverse of save_paths.  `capacity` overrides the sidecar value."""
    rows = _read_csv_rows(path)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    header, data = rows[0], rows[1:]
    if header.fields[0] != "t" or len(header.fields) < 2:
        raise ValueError(f"{path}:{header.lineno}: expected header t,path_1,...")
    n_paths = len(header.fields) - 1
    times = np.empty(len(data))
    values = np.empty((n_paths, len(data)))
    for j, row in enumerate(data):
        if len(row.fields) != n_paths + 1:
            raise ValueError(f"{path}:{row.lineno}: expected {n_paths + 1} fields")
        try:
            times[j] = float(row.fields[0])
            values[:, j] = [float(v) for v in row.fields[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{row.lineno}: non-numeric cell ({exc})") from None

    sidecar_path = path + ".meta.json"
    sidecar = {}
    if os.path.exists(sidecar_path):
        with open(sidecar_path) as handle:
            sidecar = json.load(handle)
    if capacity is None:
        capacity = sidecar.get("capacity")
        if capacity is None:
            raise ValueError(f"{path}: no sidecar capacity; pass capacity explicitly")
    ps = PathSet(
        grid=_grid_from_times(times),
        values=values,
        space=sidecar.get("space", "X"),
        capacity=float(capacity),
        seed=sidecar.get("seed"),
        meta=sidecar.get("meta", {}),
    )
    ps.validate()
    return ps


# ---------------------------------------------------------------------------
# estimates


def save_estimate(result: EstimateResult, path: str, *, capacity: float, seed: int = 0) -> None:
    """Write fitted intensity curves sampled on the observation grid.

    Columns are pinned: t, lambda_hat, sigma2_hat_raw,
    sigma2_hat_floored.  The JSON sidecar holds the homogeneous-fit
    baseline, scalar summaries over the default window and the
    diagnostics dict.
    """
    times = result.grid.times
    a, b = float(times[0]), float(times[-1])
    sidecar = {
        "capacity": capacity,
        "window": [a, b],
        "mle": list(result.mle) if result.mle is not None else None,
        "avg_lambda": result.avg_lambda_hat(a, b),
        "avg_sigma2": result.avg_sigma2_hat(a, b),
        "diagnostics": result.diagnostics,
        "n_times": int(times.size),
    }
    curves = (result.lambda_hat, result.sigma2_hat_raw, result.sigma2_hat_floored)
    _write_csv(
        path,
        ["t", "lambda_hat", "sigma2_hat_raw", "sigma2_hat_floored"],
        [times, *(curve(times) for curve in curves)],
        meta=(sidecar, seed),
    )
    _write_json(path + ".meta.json", sidecar)


# ---------------------------------------------------------------------------
# experiment report tables


def _report_payload(report: ExperimentReport) -> dict:
    config = report.config
    return {
        "label": config.label,
        "rates": pair_to_dict(config.rates),
        "x0": config.x0,
        "grid": [config.grid.t0, config.grid.delta, config.grid.n],
        "n_paths": config.n_paths,
        "replicates": config.replicates,
        "master_seed": config.master_seed,
        "methods": list(config.methods),
        "stride": config.stride,
        "simulator": config.simulator,
        "em_refine": EM_REFINE,
        "em_drift_correction": config.em_drift_correction,
    }


def write_table1(rows: list[dict], path: str, *, payload: dict, seed: int) -> None:
    """Error-table CSV: one row per (case, method)."""
    header = ["case", "method", "lambda_true", "sigma2_true", "mre_lambda", "mre_sigma2"]
    columns = [[str(row[key]) for row in rows] for key in header[:2]]
    columns.extend(np.array([row[key] for row in rows], dtype=float) for key in header[2:])
    _write_csv(path, header, columns, meta=(payload, seed))


def write_bands(report: ExperimentReport, path: str, *, unbiased: bool = False) -> None:
    """Pointwise mean/sd band CSV for both fitted intensity curves."""
    header, columns = ["t"], [report.times]
    for name, curves in (("lambda", report.lambda_curves), ("sigma2", report.sigma2_curves)):
        header.extend(f"{name}_{stat}" for stat in ("mean", "sd", "lower", "upper"))
        columns.extend(pointwise_band(curves, unbiased=unbiased))
    _write_csv(path, header, columns, meta=(_report_payload(report), report.config.master_seed))


def _scalar_estimates(report: ExperimentReport) -> list[tuple[str, str, np.ndarray]]:
    """(method, param, per-replicate values) triples present in a report."""
    out = [
        ("GMM", "lambda", report.scalar_lambda),
        ("GMM", "sigma2", report.scalar_sigma2),
    ]
    if report.mle_lambda is not None:
        out.append(("MLE", "lambda", report.mle_lambda))
        out.append(("MLE", "sigma2", report.mle_sigma2))
    return out


def write_boxplot(reports: list[ExperimentReport], path: str, *, seed: int) -> None:
    """Five-number summaries of per-replicate scalar estimates."""
    summaries = [
        (report.config.label, method, param, boxplot_stats(values))
        for report in reports
        for method, param, values in _scalar_estimates(report)
    ]
    header = ["case", "method", "param", "min", "q1", "median", "q3", "max", "outliers"]
    columns = [[row[i] for row in summaries] for i in range(3)]
    columns.extend(np.array([row[3][stat] for row in summaries]) for stat in header[3:8])
    columns.append([";".join(map(repr, row[3]["outliers"])) for row in summaries])
    payload = {"reports": [_report_payload(r) for r in reports]}
    _write_csv(path, header, columns, meta=(payload, seed))


def write_kde(reports: list[ExperimentReport], path: str, *, seed: int) -> None:
    """Kernel densities of standardized scalar estimates, long format."""
    labels, grids, densities = [[], [], [], []], [], []
    for report in reports:
        for method, param, values in _scalar_estimates(report):
            grid, density, bw = kde(standardize(values))
            for column, cell in zip(labels, (report.config.label, method, param, repr(bw))):
                column.extend([cell] * grid.size)
            grids.append(grid)
            densities.append(density)
    floats = [np.concatenate(arrays) if arrays else np.empty(0) for arrays in (grids, densities)]
    payload = {"reports": [_report_payload(r) for r in reports]}
    header = ["case", "method", "param", "bandwidth", "x", "density"]
    _write_csv(path, header, labels + floats, meta=(payload, seed))


# ---------------------------------------------------------------------------
# raw incidence series


@dataclass
class _Row:
    lineno: int
    fields: list[str]


def _read_csv_rows(path: str) -> list[_Row]:
    """Raw rows with 1-based line numbers; comments and blanks skipped."""
    rows = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            rows.append(_Row(lineno, [f.strip() for f in stripped.split(",")]))
    return rows


@dataclass
class RawSeriesTable:
    """Incident counts per location on a common time column.

    counts maps location name to the incident (per-interval, not
    cumulative) series; populations maps location name to its
    population size.  Times must be finite and strictly increasing,
    counts nonnegative, populations positive.
    """

    times: np.ndarray
    counts: dict[str, np.ndarray]
    populations: dict[str, float]

    def validate(self) -> None:
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("need at least two observation times")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("observation times must be finite")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("observation times must be strictly increasing")
        if not self.counts:
            raise ValueError("need at least one location")
        for name, series in self.counts.items():
            if series.shape != self.times.shape:
                raise ValueError(f"location {name!r}: column length mismatch")
            if np.any(series < 0.0) or not np.all(np.isfinite(series)):
                raise ValueError(f"location {name!r}: counts must be finite and >= 0")
            pop = self.populations.get(name)
            if pop is None:
                raise ValueError(f"location {name!r}: no population entry")
            if not (math.isfinite(pop) and pop > 0.0):
                raise ValueError(f"location {name!r}: population must be positive")

    @property
    def locations(self) -> tuple[str, ...]:
        return tuple(self.counts.keys())


def load_csv(counts_path: str, populations_path: str) -> RawSeriesTable:
    """Parse the incident-count table and its population list.

    Counts file header: time,<loc1>,...,<locL>; populations file
    header: location,population.  Malformed cells are rejected with
    file and line number; non-finite, duplicate or backward times,
    negative counts and missing populations are errors.
    """
    rows = _read_csv_rows(counts_path)
    if len(rows) < 2:
        raise ValueError(f"{counts_path}: expected a header and at least one data row")
    header = rows[0]
    if header.fields[0] != "time" or len(header.fields) < 2:
        raise ValueError(f"{counts_path}:{header.lineno}: expected header time,<loc>,...")
    names = header.fields[1:]
    if len(set(names)) != len(names) or any(not n for n in names):
        raise ValueError(f"{counts_path}:{header.lineno}: location names must be unique and nonempty")

    times = []
    columns = {name: [] for name in names}
    for row in rows[1:]:
        if len(row.fields) != len(names) + 1:
            raise ValueError(
                f"{counts_path}:{row.lineno}: expected {len(names) + 1} fields, got {len(row.fields)}"
            )
        try:
            cells = [float(v) for v in row.fields]
        except ValueError:
            raise ValueError(f"{counts_path}:{row.lineno}: non-numeric cell") from None
        t = cells[0]
        if not math.isfinite(t):
            raise ValueError(f"{counts_path}:{row.lineno}: time {t!r} is not finite")
        if times and t <= times[-1]:
            kind = "duplicate" if t == times[-1] else "backward"
            raise ValueError(f"{counts_path}:{row.lineno}: {kind} time {t!r}")
        for name, cell in zip(names, cells[1:]):
            if cell < 0.0:
                raise ValueError(f"{counts_path}:{row.lineno}: negative count for {name!r}")
            columns[name].append(cell)
        times.append(t)

    pop_rows = _read_csv_rows(populations_path)
    if not pop_rows or pop_rows[0].fields != ["location", "population"]:
        raise ValueError(f"{populations_path}: expected header location,population")
    populations: dict[str, float] = {}
    for row in pop_rows[1:]:
        if len(row.fields) != 2:
            raise ValueError(f"{populations_path}:{row.lineno}: expected 2 fields")
        name = row.fields[0]
        try:
            pop = float(row.fields[1])
        except ValueError:
            raise ValueError(f"{populations_path}:{row.lineno}: non-numeric population") from None
        if name in populations:
            raise ValueError(f"{populations_path}:{row.lineno}: duplicate location {name!r}")
        if not pop > 0.0:
            raise ValueError(f"{populations_path}:{row.lineno}: population must be positive")
        populations[name] = pop

    missing = [n for n in names if n not in populations]
    if missing:
        raise ValueError(f"{populations_path}: missing population for locations {missing}")
    table = RawSeriesTable(
        times=np.asarray(times, dtype=float),
        counts={name: np.asarray(columns[name], dtype=float) for name in names},
        populations={name: populations[name] for name in names},
    )
    table.validate()
    return table


def save_raw_series(table: RawSeriesTable, counts_path: str, populations_path: str) -> None:
    """Write a raw series table in the two-file format load_csv reads."""
    table.validate()
    names = list(table.locations)
    _write_csv(counts_path, ["time", *names], [table.times, *(table.counts[name] for name in names)])
    populations = np.array([table.populations[name] for name in names])
    _write_csv(populations_path, ["location", "population"], [names, populations])


def restrict_window(table: RawSeriesTable, t_lo: float, t_hi: float) -> RawSeriesTable:
    """Sub-table with observation times inside [t_lo, t_hi].

    The counts before t_lo are added to the first kept row, so the
    cumulated paths start at the prevalence reached by the window start,
    not at zero.  They are summed in cumsum's order, so a windowed path
    is the slice of the whole path bit for bit.
    """
    mask = (table.times >= t_lo) & (table.times <= t_hi)
    if int(mask.sum()) < 2:
        raise ValueError("time window keeps fewer than two observations")
    first = int(np.argmax(mask))
    counts = {}
    for name, series in table.counts.items():
        counts[name] = series[mask]
        counts[name][0] = np.cumsum(series[: first + 1])[-1]
    return RawSeriesTable(times=table.times[mask], counts=counts, populations=dict(table.populations))


def cumulate_normalize(
    table: RawSeriesTable,
    capacity: float,
    *,
    time_unit: str = "index",
    global_population: bool = False,
) -> PathSet:
    """Cumulative normalized prevalence paths, one per location.

    Each location's incident counts are summed over time and divided by
    its population (or by the largest population of the table with
    global_population=True).  The resulting nondecreasing fractions are
    treated as d sample paths of one common process on (0, capacity);
    values above (1-CLIP_EPS)*K are pulled down to it and counted in
    meta["clip_count"].  A normalized value at or above capacity means
    the capacity is set too small; that is an error, not a clip.

    A location whose first normalized value is below CLIP_EPS*K, zero
    included, is refused (ValueError naming every such location): each
    path is measured against its first value, and a start clipped up to
    CLIP_EPS*K would put a jump of up to ln(1/CLIP_EPS) ≈ 20 into that
    path and skew every estimate.  After restrict_window the first count
    holds every case up to the window start, so only a location with
    (almost) no cases by then is refused.  Drop the location, or start
    the time window where it has cases.

    time_unit "index" numbers observations 0, 1, 2, ...; "calendar"
    keeps the table's own time column (which must be uniformly spaced).
    Rates are in units of one over the chosen time unit.
    """
    table.validate()
    if time_unit not in TIME_UNITS:
        raise ValueError(f"time_unit must be one of {TIME_UNITS}")
    if not capacity > 0.0:
        raise ValueError("capacity must be positive")
    global_pop = max(table.populations.values())
    values = np.empty((len(table.counts), table.times.size))
    for i, name in enumerate(table.locations):
        divisor = global_pop if global_population else table.populations[name]
        values[i] = np.cumsum(table.counts[name]) / divisor
    lo, hi = CLIP_EPS * capacity, (1.0 - CLIP_EPS) * capacity
    start = values[:, 0]
    refused = {
        "first count is 0": start == 0.0,
        f"first normalized value is below {CLIP_EPS:g}*capacity": (start > 0.0) & (start < lo),
    }
    message = "".join(
        f"{what} at location(s) {', '.join(repr(n) for n, hit in zip(table.locations, mask) if hit)}; "
        for what, mask in refused.items()
        if mask.any()
    )
    if message:
        raise ValueError(
            message + "a path cannot start at (near) zero prevalence: drop them or start the window later"
        )
    worst = float(values.max())
    if worst >= capacity:
        raise ValueError(
            f"normalized value {worst:.6g} reaches capacity {capacity:.6g}; increase capacity"
        )
    # paths are nondecreasing and start at or above lo, so only the top edge clips
    clipped = values > hi
    n_clipped = int(clipped.sum())
    if n_clipped:
        values = np.minimum(values, hi)

    if time_unit == "index":
        grid = TimeGrid(t0=0.0, delta=1.0, n=int(table.times.size))
    else:
        grid = _grid_from_times(table.times)
    ps = PathSet(
        grid=grid,
        values=values,
        space="X",
        capacity=float(capacity),
        seed=None,
        meta={
            "clip_count": n_clipped,
            "locations": list(table.locations),
            "time_unit": time_unit,
            "normalization": "global_max" if global_population else "per_location",
        },
    )
    ps.validate()
    return ps


def suggest_K(paths) -> float:
    """Heuristic capacity suggestion: largest observed value times SUGGEST_K_FACTOR.

    Advisory only; the capacity used for analysis remains a user
    decision.
    """
    values = paths.values if isinstance(paths, PathSet) else np.asarray(paths, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one observation")
    return float(values.max()) * SUGGEST_K_FACTOR


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings for the raw-series analysis pipeline."""

    capacity: float
    stride: int = 1
    time_unit: str = "index"
    global_population: bool = False
    time_window: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not self.capacity > 0.0:
            raise ValueError("capacity must be positive")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.time_unit not in TIME_UNITS:
            raise ValueError(f"time_unit must be one of {TIME_UNITS}")
        if self.time_window is not None:
            a, b = self.time_window
            if not b > a:
                raise ValueError("time_window must have b > a")


def analyze_series(table: RawSeriesTable, config: AnalysisConfig):
    """Raw counts to fitted intensity curves: the real-data pipeline.

    Returns (paths, estimate): the normalized prevalence paths and the
    intensity fit, including the homogeneous baseline.
    """
    if config.time_window is not None:
        table = restrict_window(table, *config.time_window)
    paths = cumulate_normalize(
        table,
        config.capacity,
        time_unit=config.time_unit,
        global_population=config.global_population,
    )
    estimate = estimate_pipeline(paths, stride=config.stride, with_mle=True)
    return paths, estimate
