"""File formats: path bundles, estimate tables, report CSVs, raw counts.

Everything written here is deterministic: no timestamps, floats
formatted by shortest round-trip repr (in the C kernel of
sidiff._kernels, which writes repr's bytes, or through repr itself where
it cannot be built), dict keys sorted in JSON sidecars, and every CSV
opens with one metadata comment line

    # config-hash=<12 hex> seed=<int> version=<semver>

so a rerun can be checked byte for byte.

Tables are read back by the C reader of sidiff._kernels, which parses
the files these writers write, rows of '\n'-ended cells in repr's
number grammar, to the doubles float() gives.  Any other file (CRLF
endings, blank or comment lines among the rows, spaces, other number
spellings, a missing final newline) and any file where the kernels
cannot be built is read line by line with float(), which gives the
same doubles and words every error with its path:line.

Writes go to a temp file in the target directory, .tmp_<random>.part,
which is then renamed onto the target, so an exception or a process
crash never leaves a partial file at the target.  An existing target is
first renamed aside to .tmp_<random>.old (same <random>), and unlinked
once the new file is in place.  A crash between the two renames leaves
the target missing, the old content in the .old file and the new
content in the .part file.

Nothing here calls fsync, and an OS crash or power loss is not covered.
Renaming onto a path that exists makes ext4 (auto_da_alloc, its
default) write the new data out before it commits the rename; the aside
rename skips that write, and with it the ordering it gave.  So after an
overwrite, until the kernel writes the data back (about 30 s with
Linux's default writeback), an OS crash or power loss can leave the
target empty or short with its old content gone, where a plain replace
on ext4 leaves the old file or the new one.  A write to a new name is
exposed either way.  Every file here is a deterministic function of its
inputs, so rerunning the command that wrote it restores it.
"""

from __future__ import annotations

import errno
import hashlib
import io
import itertools
import json
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._version import __version__
from .estimate import EstimateResult, estimate_pipeline
from .experiments import EM_REFINE, ExperimentReport, boxplot_stats, kde, pointwise_band, standardize
from .model import CLIP_EPS
from .rates import _finite_number, _positive_number, _whole_number, pair_to_dict
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
    "cumulate_normalize",
    "suggest_K",
    "analyze_series",
]

GRID_UNIFORM_RTOL = 1e-8
TIME_UNITS = ("index", "calendar")
SUGGEST_K_FACTOR = 1.05  # suggest_K's inflation of the largest observation
SCALAR_PARAMS = ("lambda", "sigma2")  # the order of ExperimentReport.scalar_estimates' pairs


def _atomic_write(path: str, data: bytes) -> None:
    """Write data to a temp file .tmp_<random>.part and rename it onto path.

    An exception or a process crash never leaves a partial file at path.
    An existing path is first renamed to .tmp_<random>.old and unlinked
    after the rename in; if the rename in fails, the old file is renamed
    back before the error is raised.  A crash between the two renames
    leaves path missing, the old content in the .old file and the new in
    the .part file.  No fsync is called, and since no rename lands on an
    existing path, ext4 does not write the new data out first: an OS
    crash or power loss soon after an overwrite can leave path empty or
    short with the old content gone (see the module docstring).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # refused as a replace would refuse it: the aside rename would move a directory
    if os.path.isdir(path) and not os.path.islink(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
    aside = tmp.removesuffix(".part") + ".old"
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        try:
            os.rename(path, aside)
        except FileNotFoundError:
            aside = None
        try:
            os.rename(tmp, path)
        except BaseException:
            if aside is not None:
                os.rename(aside, path)
            raise
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    if aside is not None:
        os.unlink(aside)


def _write_csv(
    path: str, header: list[str], columns: list, meta: tuple[dict, int] | None = None
) -> None:
    """Atomically write equal-length columns as one CSV, one row per index.

    A list column holds ready-made strings; any other column is a float
    array, written cell by cell as the shortest round-trip repr.
    meta=(payload, seed) puts the metadata comment line first.

    A table of floats alone is one call of the C formatter, which writes
    its text into one preallocated buffer, written out as it is.  Any
    other table is joined row by row from the cells of its columns; a
    float column's cells are made as their rows are joined (see
    `_float_cells`), so a float column costs its text, not one object
    per cell.
    """
    import locale  # the encoding open() would write text in

    encoding = locale.getpreferredencoding(False)
    lines = [metadata_line(*meta)] if meta is not None else []
    lines.append(",".join(header))
    head = ("\n".join(lines) + "\n").encode(encoding)
    if _kernels.library() is not None and not any(isinstance(col, list) for col in columns):
        block = np.stack([np.asarray(col, dtype=float) for col in columns], axis=1)
        buffer = np.empty(len(head) + _kernels.CELL_BYTES * block.size, dtype=np.uint8)
        buffer[: len(head)] = np.frombuffer(head, dtype=np.uint8)
        written = _kernels.format_block(block, buffer[len(head) :])
        _atomic_write(path, buffer[: len(head) + written].data)
        return
    cells = [
        (cell.encode(encoding) for cell in col) if isinstance(col, list) else _float_cells(col)
        for col in columns
    ]
    rows = (b",".join(row) + b"\n" for row in zip(*cells))
    _atomic_write(path, b"".join(itertools.chain([head], rows)))


def _float_cells(column) -> Iterator[bytes]:
    """The cells of a float column as repr writes them, each made as it
    is read: lines of the C formatter's text, or repr where the kernels
    cannot be built."""
    values = np.ascontiguousarray(column, dtype=float)
    if _kernels.library() is None:
        return (repr(value).encode() for value in values.tolist())
    text = np.empty(_kernels.CELL_BYTES * values.size, dtype=np.uint8)
    written = _kernels.format_block(values.reshape(-1, 1), text)
    return (line[:-1] for line in io.BytesIO(text[:written].tobytes()))


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


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
    # steps within GRID_UNIFORM_RTOL of delta, plus the rounding of the
    # times themselves, which grows with their magnitude
    tol = GRID_UNIFORM_RTOL * delta + 4 * np.finfo(float).eps * max(abs(times[0]), abs(times[-1]))
    if np.any(np.abs(diffs - delta) > tol):
        # name the first step off the median step, else the one furthest off the mean
        off = np.abs(diffs - np.partition(diffs, diffs.size // 2)[diffs.size // 2]) > tol
        i = int(np.argmax(off if off.any() else np.abs(diffs - delta)))
        a, b = times[i : i + 2].tolist()
        raise ValueError(f"times are not uniformly spaced: first uneven step {a!r} -> {b!r}")
    return TimeGrid(t0=float(times[0]), delta=delta, n=int(times.size))


def _read_lines(path: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped line) pairs; comments and blank lines skipped."""
    with open(path) as handle:
        return [
            (lineno, stripped)
            for lineno, line in enumerate(handle, start=1)
            if (stripped := line.strip()) and not stripped.startswith("#")
        ]


def _split(line: str) -> list[str]:
    return [f.strip() for f in line.split(",")]


def _read_table(path: str, first_column: str) -> tuple[list[str], list[int], np.ndarray]:
    """Header, data line numbers and (rows, columns) float cells of a CSV.

    Refuses, naming path:line, a header not starting with first_column
    or of one field, a row of another width and a non-numeric cell.

    The C reader of sidiff._kernels takes the files the writers write;
    it hands any other file back whole, and `_parse_cells` reads it and
    words every error.
    """
    table = _read_table_in_c(path, first_column) if _kernels.library() is not None else None
    if table is not None:
        return table
    lines = _read_lines(path)
    if len(lines) < 2:
        raise ValueError(f"{path}: expected a header and at least one data row")
    header_line, header = lines[0][0], _split(lines[0][1])
    data = lines[1:]
    if header[0] != first_column or len(header) < 2:
        raise ValueError(f"{path}:{header_line}: expected header {first_column},<column>,...")
    return header, [lineno for lineno, _ in data], _parse_cells(path, len(header), data)


def _read_table_in_c(path: str, first_column: str) -> tuple[list[str], list[int], np.ndarray] | None:
    """_read_table's result through the C reader, or None where it hands
    the file back.

    The file is read once as bytes.  The blank and '#' lines before the
    header are skipped and the header is decoded as _read_lines does;
    every later byte goes to the C reader, which takes only rows of the
    header's width in the writers' grammar, each ended by '\n'.  So the
    data lines follow the header line with no gap.  A '\r' before the
    body, where text mode would end a line, a header that does not
    decode, a header _read_table refuses and a file with no data row are
    handed back, as is every body the C reader refuses.
    """
    import locale  # the encoding open() reads text in

    encoding = locale.getpreferredencoding(False)
    with open(path, "rb") as handle:
        data = handle.read()
    start = header_line = 0
    while True:
        end = data.find(b"\n", start)
        if end < 0 or b"\r" in data[start:end]:
            return None
        try:
            text = data[start:end].decode(encoding).strip()
        except UnicodeDecodeError:
            return None
        start, header_line = end + 1, header_line + 1
        if text and not text.startswith("#"):
            break
    header = _split(text)
    rows = _kernels.count_lines(data, start)
    # a cell takes at least a digit and a separator, so a body shorter
    # than that is not whole rows: handed back before any array is made
    if header[0] != first_column or len(header) < 2 or not 0 < 2 * rows * len(header) <= len(data) - start:
        return None
    cells = _kernels.parse_block(data, start, rows, len(header))
    if cells is None:
        return None
    return header, list(range(header_line + 1, header_line + rows + 1)), cells


def _parse_cells(path: str, width: int, data: list[tuple[int, str]]) -> np.ndarray:
    """The rows of data as floats, line by line; refuses naming path:line."""
    cells = np.empty((len(data), width))
    for j, (lineno, text) in enumerate(data):
        fields = _split(text)
        if len(fields) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
        try:
            cells[j] = [float(v) for v in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
    return cells


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
    """Inverse of save_paths.  `capacity` overrides the sidecar value.

    A wrong header, a row of the wrong width or a non-numeric cell is a
    ValueError naming path:line.  Unevenly spaced times and every
    refusal of `PathSet.validate` (a non-finite value, an X value
    outside (0, capacity), with the capacity used and the value) are
    ValueErrors naming path.  The sidecar <path>.meta.json may be
    absent.  If present it must be valid JSON: an object whose seed is
    an object or null (its master_seed, when given, a nonnegative
    integer), whose meta is an object and whose capacity is a finite
    number or null, or the ValueError names the sidecar.  The capacity
    used must be positive and finite.
    """
    _, _, cells = _read_table(path, "t")
    columns = cells.T.copy()
    sidecar = _read_sidecar(path + ".meta.json")
    if capacity is None:
        capacity = sidecar.get("capacity")
        if capacity is None:
            raise ValueError(f"{path}: no sidecar capacity; pass capacity explicitly")
    capacity = _positive_number(capacity, "capacity")
    try:
        ps = PathSet(
            grid=_grid_from_times(columns[0]),
            values=columns[1:],
            space=sidecar.get("space", "X"),
            capacity=capacity,
            seed=sidecar.get("seed"),
            meta=sidecar.get("meta", {}),
        )
        ps.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return ps


def _read_sidecar(path: str) -> dict:
    """A bundle's JSON sidecar, {} if there is none; malformed ones are refused."""
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        try:
            sidecar = json.load(handle)
        except json.JSONDecodeError as exc:
            # a plain ValueError: a malformed sidecar is a data error, not a config error
            raise ValueError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(sidecar, dict):
        raise ValueError(f"{path}: sidecar must be a JSON object, not {sidecar!r}")
    seed = sidecar.get("seed")
    if not isinstance(seed, (dict, type(None))):
        raise ValueError(f"{path}: 'seed' must be an object or null, not {seed!r}")
    _whole_number((seed or {}).get("master_seed", 0), f"{path}: seed 'master_seed'")
    if not isinstance(sidecar.get("meta", {}), dict):
        raise ValueError(f"{path}: 'meta' must be an object, not {sidecar['meta']!r}")
    if sidecar.get("capacity") is not None:
        what = f"{path}: 'capacity'"
        sidecar["capacity"] = _positive_number(_finite_number(sidecar["capacity"], what), what)
    return sidecar


# ---------------------------------------------------------------------------
# estimates


def save_estimate(result: EstimateResult, path: str, *, capacity: float, seed: int = 0) -> None:
    """Write fitted intensity curves sampled on the observation grid.

    Columns are pinned: t, lambda_hat, sigma2_hat_raw,
    sigma2_hat_floored.  The JSON sidecar holds the homogeneous-fit
    baseline, scalar summaries over the whole grid (its window) and
    the diagnostics dict.
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
    _write_csv(
        path,
        ["t", "lambda_hat", "sigma2_hat_raw", "sigma2_hat_floored"],
        [times, result.lambda_grid, result.sigma2_grid, np.maximum(result.sigma2_grid, 0.0)],
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


def write_boxplot(reports: list[ExperimentReport], path: str, *, seed: int) -> None:
    """Five-number summaries of per-replicate scalar estimates."""
    summaries = [
        (report.config.label, method, param, boxplot_stats(values))
        for report in reports
        for method, estimates in report.scalar_estimates().items()
        for param, values in zip(SCALAR_PARAMS, estimates)
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
        for method, estimates in report.scalar_estimates().items():
            for param, values in zip(SCALAR_PARAMS, estimates):
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
class RawSeriesTable:
    """Incident counts of several locations on a common time column.

    times: (times,) finite, strictly increasing observation times.
    locations: the location names, unique and nonempty.
    counts: (locations, times) incident (per-interval, not cumulative)
    counts, finite and >= 0; row i belongs to locations[i].
    populations: (locations,) population sizes, positive and finite.
    """

    times: np.ndarray
    locations: tuple[str, ...]
    counts: np.ndarray
    populations: np.ndarray

    def validate(self) -> None:
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("need at least two observation times")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("observation times must be finite")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("observation times must be strictly increasing")
        if not self.locations:
            raise ValueError("need at least one location")
        if len(set(self.locations)) != len(self.locations) or not all(self.locations):
            raise ValueError("location names must be unique and nonempty")
        shape = (len(self.locations), self.times.size)
        if self.counts.shape != shape or self.populations.shape != shape[:1]:
            raise ValueError(
                f"counts must be {shape} and populations {shape[:1]} (locations x times), "
                f"not {self.counts.shape} and {self.populations.shape}"
            )
        counts_ok = (np.isfinite(self.counts) & (self.counts >= 0.0)).all(axis=1)
        populations_ok = np.isfinite(self.populations) & (self.populations > 0.0)
        for ok, problem in (
            (counts_ok, "counts must be finite and >= 0"),
            (populations_ok, "population must be positive and finite"),
        ):
            if not ok.all():
                raise ValueError(f"location {self.locations[int(np.argmin(ok))]!r}: {problem}")


def load_csv(counts_path: str, populations_path: str) -> RawSeriesTable:
    """Parse the incident-count table and its population list.

    Counts file header: time,<loc1>,...,<locL>; populations file
    header: location,population.  Each of these is refused with a
    ValueError naming file:line: a row with the wrong field count, a
    non-numeric cell, a non-finite time, a duplicate or backward time,
    a negative or non-finite count, a duplicate location and a
    population that is not positive and finite.  Duplicate or empty
    location names and missing populations are refused naming the file.
    """
    header, lines, cells = _read_table(counts_path, "time")
    names = tuple(header[1:])
    if len(set(names)) != len(names) or not all(names):
        raise ValueError(f"{counts_path}: location names must be unique and nonempty")
    columns = cells.T.copy()
    times, counts = columns[0], columns[1:]

    bad = ~np.isfinite(times)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{counts_path}:{lines[row]}: time {float(times[row])!r} is not finite")
    bad = np.diff(times) <= 0.0
    if bad.any():
        row = int(np.argmax(bad)) + 1
        kind = "duplicate" if times[row] == times[row - 1] else "backward"
        raise ValueError(f"{counts_path}:{lines[row]}: {kind} time {float(times[row])!r}")
    # row-major, so the first bad cell is the one the file shows first
    bad = ~(cells[:, 1:] >= 0.0) | np.isinf(cells[:, 1:])
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), len(names))
        count = float(cells[row, col + 1])
        problem = "negative count" if count < 0.0 else f"non-finite count {count!r}"
        raise ValueError(f"{counts_path}:{lines[row]}: {problem} for {names[col]!r}")

    populations: dict[str, float] = {}
    pop_rows = [(lineno, _split(text)) for lineno, text in _read_lines(populations_path)]
    if not pop_rows or pop_rows[0][1] != ["location", "population"]:
        raise ValueError(f"{populations_path}: expected header location,population")
    for lineno, fields in pop_rows[1:]:
        where = f"{populations_path}:{lineno}"
        if len(fields) != 2:
            raise ValueError(f"{where}: expected 2 fields")
        name = fields[0]
        try:
            pop = float(fields[1])
        except ValueError:
            raise ValueError(f"{where}: non-numeric population") from None
        if name in populations:
            raise ValueError(f"{where}: duplicate location {name!r}")
        populations[name] = _positive_number(pop, f"{where}: population")

    missing = [n for n in names if n not in populations]
    if missing:
        raise ValueError(f"{populations_path}: missing population for locations {missing}")
    table = RawSeriesTable(times, names, counts, np.array([populations[n] for n in names]))
    table.validate()
    return table


def save_raw_series(table: RawSeriesTable, counts_path: str, populations_path: str) -> None:
    """Write a raw series table in the two-file format load_csv reads."""
    table.validate()
    _write_csv(counts_path, ["time", *table.locations], [table.times, *table.counts])
    _write_csv(populations_path, ["location", "population"], [list(table.locations), table.populations])


def cumulate_normalize(
    table: RawSeriesTable,
    capacity: float,
    *,
    time_unit: str = "index",
    global_population: bool = False,
    window: tuple[float, float] | None = None,
) -> PathSet:
    """Cumulative normalized prevalence paths, one per location.

    Each location's incident counts are summed over time and divided by
    its population (or by the largest population of the table with
    global_population=True).  The resulting nondecreasing fractions are
    treated as d sample paths of one common process on (0, capacity).
    window=(t_lo, t_hi) keeps the columns at times inside [t_lo, t_hi],
    a slice of the whole paths.  Nothing is clipped here: a value within
    CLIP_EPS*K of K is returned as it is, and estimate.transform_paths
    clips and counts it.  A kept value at or above capacity means the
    capacity is set too small; that is an error, not a clip.

    A location whose first kept value is below CLIP_EPS*K, zero
    included, is refused (ValueError naming every such location): each
    path is measured against its first value, and a start clipped up to
    CLIP_EPS*K would put a jump of up to ln(1/CLIP_EPS) ≈ 20 into that
    path and skew every estimate.  With a window the first kept value
    holds every case up to the window start, so only a location with
    (almost) no cases by then is refused.  Drop the location, or start
    the time window where it has cases.

    time_unit "index" numbers the kept columns 0, 1, 2, ...; "calendar"
    keeps the table's own times.  Both need uniformly spaced times.
    Rates are in units of one over the chosen time unit.
    """
    table.validate()
    if time_unit not in TIME_UNITS:
        raise ValueError(f"time_unit must be one of {TIME_UNITS}")
    _positive_number(capacity, "capacity")
    divisor = table.populations.max() if global_population else table.populations[:, None]
    times, values = table.times, np.cumsum(table.counts, axis=1) / divisor
    if window is not None:
        keep = (times >= window[0]) & (times <= window[1])
        if np.count_nonzero(keep) < 2:
            raise ValueError("time window keeps fewer than two observations")
        # a boolean column index returns Fortran order, in which numpy sums
        # the moments in another order; C order keeps a windowed estimate
        # bit for bit that of the whole path's slice
        times, values = times[keep], np.ascontiguousarray(values[:, keep])
    grid = _grid_from_times(times)
    lo = CLIP_EPS * capacity
    start = values[:, 0]
    refused = {
        "first count is 0": start == 0.0,
        f"first normalized value is below {CLIP_EPS:g}*capacity": (start > 0.0) & (start < lo),
    }
    message = "".join(
        f"{what} at location(s) {', '.join(repr(table.locations[i]) for i in np.flatnonzero(mask))}; "
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

    ps = PathSet(
        grid=TimeGrid(0.0, 1.0, grid.n) if time_unit == "index" else grid,
        values=values,
        space="X",
        capacity=float(capacity),
        seed=None,
        meta={
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
        _positive_number(self.capacity, "capacity")
        _whole_number(self.stride, "stride", 1)
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
    paths = cumulate_normalize(
        table,
        config.capacity,
        time_unit=config.time_unit,
        global_population=config.global_population,
        window=config.time_window,
    )
    estimate = estimate_pipeline(paths, stride=config.stride, with_mle=True)
    return paths, estimate
