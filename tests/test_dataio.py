import dataclasses
import glob
import hashlib
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidiff import _kernels
from sidiff import (
    AnalysisConfig,
    EstimateResult,
    ExperimentConfig,
    ExperimentReport,
    NaturalSpline,
    PathSet,
    RatePair,
    RawSeriesTable,
    TimeGrid,
    analyze_series,
    config_hash,
    constant,
    cumulate_normalize,
    estimate_pipeline,
    homogeneous_error_rows,
    load_csv,
    load_paths,
    metadata_line,
    run_experiment,
    save_estimate,
    save_paths,
    simulate_exact,
    suggest_K,
    write_bands,
    write_boxplot,
    write_kde,
    write_table1,
)
from sidiff.dataio import (
    _atomic_write,
    _parse_cells,
    _read_lines,
    _read_table,
    _read_table_in_c,
    _split,
    _write_csv,
    save_raw_series,
)
from sidiff.estimate import CLIP_EPS

K = 200.0
PAIR = RatePair(constant(0.4), constant(0.1), K)

META_RE = re.compile(r"^# config-hash=[0-9a-f]{12} seed=\d+ version=\d+\.\d+\.\d+$")


def _small_run(seed=7):
    return simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 21), 5, seed)


def _table(times=(0.0, 1.0, 2.0), counts=(2.0, 3.0, 5.0), pop=100.0):
    return _table_of(times, {"loc01": counts}, {"loc01": pop})


def _table_of(times, counts, populations):
    """A count table from {location: counts} and {location: population}."""
    names = tuple(counts)
    return RawSeriesTable(
        times=np.asarray(times, dtype=float),
        locations=names,
        counts=np.array([counts[name] for name in names], dtype=float),
        populations=np.array([populations[name] for name in names], dtype=float),
    )


# ----------------------------------------------------------------- path files


def test_save_load_paths_round_trip(tmp_path):
    ps = _small_run()
    f = str(tmp_path / "paths.csv")
    save_paths(ps, f, rates=PAIR)
    back = load_paths(f)
    assert np.array_equal(back.values, ps.values)
    assert back.capacity == K
    assert back.seed["master_seed"] == 7
    assert back.grid.n == ps.grid.n
    sidecar = json.loads((tmp_path / "paths.csv.meta.json").read_text())
    assert sidecar["capacity"] == K
    assert sidecar["rates"]["transmission"]["kind"] == "constant"


def test_load_paths_capacity_override_and_missing_sidecar(tmp_path):
    ps = _small_run()
    f = str(tmp_path / "paths.csv")
    save_paths(ps, f)
    os.unlink(f + ".meta.json")
    with pytest.raises(ValueError, match="capacity"):
        load_paths(f)
    back = load_paths(f, capacity=250.0)
    assert back.capacity == 250.0


def test_load_paths_refuses_a_sidecar_capacity_beyond_the_float_range(tmp_path):
    f = str(tmp_path / "paths.csv")
    save_paths(_small_run(), f)
    Path(f + ".meta.json").write_text(json.dumps({"capacity": 10**400}))
    with pytest.raises(ValueError, match=r"paths\.csv\.meta\.json: 'capacity' must be a finite number"):
        load_paths(f)


def test_load_paths_refuses_a_nan_sidecar_capacity(tmp_path):
    f = str(tmp_path / "paths.csv")
    save_paths(_small_run(), f)
    Path(f + ".meta.json").write_text('{"capacity": NaN}')
    with pytest.raises(ValueError, match=r"paths\.csv\.meta\.json: 'capacity' must be a finite number, not nan"):
        load_paths(f)


@pytest.mark.parametrize("capacity", [0.0, -K], ids=["zero", "minus-K"])
def test_load_paths_refuses_a_sidecar_capacity_that_is_not_positive(tmp_path, capacity):
    f = str(tmp_path / "paths.csv")
    save_paths(_small_run(), f)
    Path(f + ".meta.json").write_text(json.dumps({"capacity": capacity}))
    message = rf"paths\.csv\.meta\.json: 'capacity' must be positive and finite, got {re.escape(repr(capacity))}$"
    with pytest.raises(ValueError, match=message):
        load_paths(f)


@pytest.mark.parametrize("capacity", [0.0, -K, float("inf"), float("nan")])
def test_path_set_refuses_a_capacity_that_is_not_positive_and_finite(capacity):
    ps = PathSet(TimeGrid(0.0, 1.0, 2), np.array([[0.0, 1.0]]), "Y", capacity)
    with pytest.raises(ValueError, match="capacity must be positive and finite"):
        ps.validate()


@pytest.mark.parametrize(
    "rows, capacity, message",
    [
        ("0.0,20.0\n0.1,nan\n", K, r"bad\.csv: path values must be finite, got nan$"),
        ("0.0,20.0\n0.1,45.5\n", 30.0, r"bad\.csv: X-space paths must stay strictly inside \(0, 30\.0\), got 45\.5$"),
        ("0.0,20.0\n0.1,-0.5\n", K, r"bad\.csv: X-space paths must stay strictly inside \(0, 200\.0\), got -0\.5$"),
    ],
    ids=["nan-cell", "above-capacity", "negative"],
)
def test_load_paths_refusals_name_the_file_the_capacity_and_the_value(tmp_path, rows, capacity, message):
    f = tmp_path / "bad.csv"
    f.write_text("t,path_1\n" + rows)
    with pytest.raises(ValueError, match=message):
        load_paths(str(f), capacity=capacity)


def test_load_paths_reports_line_numbers(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("t,path_1\n0.0,20.0\n0.1,oops\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3"):
        load_paths(str(f), capacity=K)


@pytest.mark.parametrize(
    "times", [(0.0, 1e-9, 3e-9, 4e-9), (0.0, 1e-6, 2.01e-6, 3e-6)], ids=["doubled_step", "one_percent_off"]
)
def test_uneven_grids_with_small_steps_are_refused(tmp_path, times):
    # the spacing check is relative to the step, however small the step
    f = tmp_path / "uneven.csv"
    f.write_text("t,path_1\n" + "".join(f"{t!r},20.0\n" for t in times))
    with pytest.raises(ValueError, match=r"uneven\.csv: times are not uniformly spaced"):
        load_paths(str(f), capacity=K)
    table = _table(times=times, counts=(2.0, 3.0, 5.0, 8.0))
    with pytest.raises(ValueError, match="not uniformly spaced"):
        cumulate_normalize(table, 0.25, time_unit="calendar")


@pytest.mark.parametrize("time_unit", ["index", "calendar"])
@pytest.mark.parametrize(
    "times, step", [((0.0, 5.0, 6.0, 7.0), "0.0 -> 5.0"), ((0.0, 1.0, 2.0, 4.0, 5.0), "2.0 -> 4.0")]
)
def test_uneven_count_tables_are_refused_in_both_time_units(times, step, time_unit):
    # the named step is the first one off the median step
    table = _table(times=times, counts=(2.0, 3.0, 5.0, 8.0, 13.0)[: len(times)])
    with pytest.raises(ValueError, match=f"^times are not uniformly spaced: first uneven step {step}$"):
        cumulate_normalize(table, 1.0, time_unit=time_unit)
    # a window that leaves the gap out is uniform
    cumulate_normalize(table, 1.0, time_unit=time_unit, window=(times[-2], times[-1]))


def test_grids_far_from_zero_load(tmp_path):
    # each step carries the rounding of times near 1e9, which is far more
    # than a relative 1e-8 of a 1e-3 step
    grid = TimeGrid(1e9, 1e-3, 1001)
    f = str(tmp_path / "paths.csv")
    save_paths(PathSet(grid, np.full((2, grid.n), 20.0), "X", K), f)
    back = load_paths(f)
    assert (back.grid.t0, back.grid.n) == (grid.t0, grid.n)
    assert back.grid.delta == pytest.approx(grid.delta, rel=1e-9)


def test_path_csv_layout(tmp_path):
    ps = _small_run()
    f = str(tmp_path / "paths.csv")
    save_paths(ps, f)
    lines = Path(f).read_text().splitlines()
    assert META_RE.match(lines[0])
    assert lines[1] == "t," + ",".join(f"path_{i}" for i in range(1, 6))
    assert len(lines) == 2 + ps.grid.n


# ------------------------------------------------------------- estimate files


def test_save_estimate_layout_and_sidecar(tmp_path):
    ps = _small_run()
    est = estimate_pipeline(ps, stride=2)
    f = str(tmp_path / "estimate.csv")
    save_estimate(est, f, capacity=K, seed=7)
    lines = Path(f).read_text().splitlines()
    assert META_RE.match(lines[0])
    assert lines[1] == "t,lambda_hat,sigma2_hat_raw,sigma2_hat_floored"
    assert len(lines) == 2 + ps.grid.n
    # floored column is the raw column clipped at zero
    for line in lines[2:]:
        _, _, raw, floored = (float(v) for v in line.split(","))
        assert floored == max(raw, 0.0)
    sidecar = json.loads((tmp_path / "estimate.csv.meta.json").read_text())
    assert set(sidecar) == {
        "capacity", "window", "mle", "avg_lambda", "avg_sigma2", "diagnostics", "n_times"
    }
    assert sidecar["n_times"] == ps.grid.n
    assert len(sidecar["mle"]) == 2


# ----------------------------------------------------------------- determinism


def test_writers_are_deterministic(tmp_path):
    ps = _small_run()
    est = estimate_pipeline(ps, stride=2)
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    save_paths(ps, a)
    save_paths(ps, b)
    assert Path(a).read_bytes() == Path(b).read_bytes()
    save_estimate(est, a, capacity=K, seed=1)
    save_estimate(est, b, capacity=K, seed=1)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def _write_every_file_kind(d):
    """All writers and sidecars from tiny fixed inputs (no simulation, no fit)."""
    grid = TimeGrid(0.0, 0.25, 5)
    ps = PathSet(
        grid=grid,
        values=np.array([[20.0, 21.5, 23.25, 24.0, 26.125], [20.0, 19.75, 22.0, 25.5, 30.0]]),
        space="X",
        capacity=K,
        seed={"master_seed": 7, "replicate": 0},
        meta={"clip_count": 0},
    )
    save_paths(ps, str(d / "paths.csv"), rates=PAIR)

    est = EstimateResult(
        grid=grid,
        mean_curve=NaturalSpline([0.0, 0.5, 1.0], [0.0, 0.25, 0.5]),
        cov_curve=NaturalSpline([0.0, 0.5, 1.0], [0.0, 0.0625, 0.0625]),
        mle=(0.5, 0.125),
        diagnostics={"clip_count": 0, "floored": 2},
    )
    save_estimate(est, str(d / "estimate.csv"), capacity=K, seed=7)

    write_table1(
        [
            {"case": "row", "method": "MLE", "lambda_true": 0.4, "sigma2_true": 0.1,
             "mre_lambda": 0.1 / 3.0, "mre_sigma2": 0.2},
            {"case": "row", "method": "GMM", "lambda_true": 0.4, "sigma2_true": 0.1,
             "mre_lambda": 0.05, "mre_sigma2": 2.0 / 7.0},
        ],
        str(d / "table1.csv"),
        payload={"rows": 1},
        seed=7,
    )

    steps = np.arange(5.0)
    spread = np.arange(10.0)[:, None]
    row_cfg = ExperimentConfig(
        label="row", rates=PAIR, x0=20.0, grid=grid, n_paths=2, replicates=10,
        master_seed=7, stride=1,
    )
    scalars = 0.4 + 0.01 * np.array([0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1.5, -1.5, 30.0])
    row = ExperimentReport(
        config=row_cfg, times=grid.times,
        lambda_curves=0.4 + 0.01 * spread + 0.001 * steps,
        sigma2_curves=0.1 - 0.002 * spread + 0.003 * steps,
        scalar_lambda=scalars, scalar_sigma2=scalars / 4.0,
        mle_lambda=scalars[::-1].copy(), mle_sigma2=scalars / 3.0,
    )
    write_bands(row, str(d / "bands.csv"))
    write_bands(row, str(d / "bands_unbiased.csv"), unbiased=True)
    write_boxplot([row], str(d / "boxplot.csv"), seed=7)
    write_kde([row], str(d / "kde.csv"), seed=7)

    table = _table_of(
        times=np.array([0.0, 1.0, 2.0, 3.0]),
        counts={"east": np.array([1.0, 0.0, 2.5, 4.0]), "west": np.array([3.0, 3.0, 1.0, 0.1])},
        populations={"east": 1000.0, "west": 2500.5},
    )
    save_raw_series(table, str(d / "counts.csv"), str(d / "populations.csv"))


# sha256 of every file written above: any change to a writer's bytes,
# sidecars included, shows here, not only a change between two reruns
PINNED_SHA256 = {
    "bands.csv": "3f4c289095db6b4fdb1d7e5a4c5df09b8df705be2fc499a7581deb6cf96b405d",
    "bands_unbiased.csv": "6b43ede098dd716dd930a484c187845cfaf6ae7886af7d7647271c4e4d3906c2",
    "boxplot.csv": "d0c42bb291be69ce3761e27577ddb7de763a22a117201b776e71718eced58d6b",
    "counts.csv": "d8f3d8656a703bc62f402e18fad50a371913471cfaada38142d5d5992ca5c35c",
    "estimate.csv": "8117c55255b8e4f186a70d3001489865f4a3837d8cacbd3bfebf9f5cb9cad925",
    "estimate.csv.meta.json": "98e722ab5f8e077304f4a84f9bcc804f6a81aab14fec41295a5e3c724bdc3e5c",
    "kde.csv": "4f9e7306d2e006eb2d629e9be29e19f748b8860610005ec427c6ab19e51f252e",
    "paths.csv": "25d6f2f80393288b55279d032cccdc62254e3dc70eea24f5264c5233e7e2631d",
    "paths.csv.meta.json": "126e871df3a69623477d16ed04584459bc62ea913d3d829cec40bc42c33cab35",
    "populations.csv": "f7e423aabb59d965dfdf78290c4ff15745abafc60baebb493a0ebe83a659cf42",
    "table1.csv": "4470a0500591730947863f86498c45eda8e599fd0b00496327531860d0fa77ce",
}


def test_writer_bytes_are_pinned(tmp_path, kernel_states):
    for state in kernel_states:  # the C formatter and the repr loop
        (tmp_path / state).mkdir()
        _write_every_file_kind(tmp_path / state)
        got = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted((tmp_path / state).iterdir())
        }
        assert got == PINNED_SHA256, state


def test_write_csv_edge_tables(tmp_path, kernel_states):
    for state in kernel_states:  # the C formatter and the repr loop
        d = tmp_path / state
        write_kde([], str(d / "kde.csv"), seed=3)  # no reports: zero rows
        assert (d / "kde.csv").read_text().splitlines()[1:] == ["case,method,param,bandwidth,x,density"]
        _write_csv(str(d / "one.csv"), ["x"], [np.array([0.1, -2.0, 1e-7, 1e16])])
        assert (d / "one.csv").read_bytes() == b"x\n0.1\n-2.0\n1e-07\n1e+16\n"
        # float runs on both sides of a string column, and a name beyond ASCII
        columns = [["Z\u00fcrich", "b"], np.array([0.5, np.nan]), ["", "s"], np.array([3.0, -0.0]), np.array([1 / 3, 2.0])]
        _write_csv(str(d / "mixed.csv"), ["name", "x", "note", "y", "z"], columns, meta=({"k": 1}, 5))
        lines = (d / "mixed.csv").read_text().splitlines()  # in the encoding open() writes
        assert lines[1:] == ["name,x,note,y,z", "Z\u00fcrich,0.5,,3.0,0.3333333333333333", "b,nan,s,-0.0,2.0"]
        assert lines[0] == metadata_line({"k": 1}, 5)


def _write_peak(path, header, columns):
    """The tracemalloc peak of one _write_csv call, in bytes."""
    tracemalloc.start()
    try:
        _write_csv(path, header, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mixed_tables_make_float_cells_as_their_rows_are_joined(tmp_path, kernel_states):
    # a table shaped like write_kde's: four string columns, two float
    # columns.  Against the same table with its float cells handed in as
    # ready-made strings, the float columns may add their formatted text
    # (at most CELL_BYTES per cell, and the formatter's buffer beside
    # it), not one object per cell: a list of cells costs more than 50
    # bytes per cell in object headers and pointers alone
    rows = 16_384
    rng = np.random.default_rng(29)
    labels = [["case_a"] * rows, ["moment"] * rows, ["lambda"] * rows, [repr(0.123456789)] * rows]
    floats = [rng.standard_normal(rows), rng.random(rows)]
    header = ["case", "method", "param", "bandwidth", "x", "density"]
    for state in kernel_states:  # the C formatter and the repr loop
        d = tmp_path / state
        strings = [[repr(v) for v in column.tolist()] for column in floats]
        baseline = _write_peak(str(d / "strings.csv"), header, labels + strings)
        peak = _write_peak(str(d / "floats.csv"), header, labels + floats)
        assert (d / "floats.csv").read_bytes() == (d / "strings.csv").read_bytes()
        assert peak - baseline < 2 * _kernels.CELL_BYTES * 2 * rows, state


def test_no_partial_files_left_behind(tmp_path):
    ps = _small_run()
    save_paths(ps, str(tmp_path / "out.csv"))
    assert glob.glob(str(tmp_path / "*.part")) == []
    assert glob.glob(str(tmp_path / ".tmp_*")) == []


def test_atomic_write_overwrites_leaving_only_the_target(tmp_path):
    target = tmp_path / "out.csv"
    _atomic_write(str(target), b"new name\n")
    assert target.read_text() == "new name\n"
    _atomic_write(str(target), b"second\n")
    assert target.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_atomic_write_keeps_the_old_bytes_when_the_rename_in_fails(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    rename = os.rename

    def failing_rename(src, dst):
        if str(src).endswith(".part"):
            raise OSError("rename refused")
        rename(src, dst)

    monkeypatch.setattr(os, "rename", failing_rename)
    with pytest.raises(OSError, match="rename refused"):
        _atomic_write(str(target), b"new\n")
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_atomic_write_refuses_a_directory_target(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "kept").write_text("x")
    with pytest.raises(IsADirectoryError):
        _atomic_write(str(tmp_path / "out"), b"new\n")
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(tmp_path / "out") == ["kept"]


def _line_parser_result(path):
    """_read_table's result as the line-numbered parser alone gives it."""
    lines = _read_lines(path)
    header = _split(lines[0][1])
    return header, [lineno for lineno, _ in lines[1:]], _parse_cells(path, len(header), lines[1:])


def _same_reading(path, first_column):
    """_read_table and the line parser give bit-identical results or the same error."""
    try:
        expected = _line_parser_result(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _read_table(path, first_column)
        assert str(got.value) == str(exc)
        return None
    header, lines, cells = _read_table(path, first_column)
    assert (header, lines) == expected[:2]
    assert cells.dtype == expected[2].dtype and cells.shape == expected[2].shape
    assert cells.tobytes() == expected[2].tobytes()
    return cells


def _with_cell(row, cell):
    """The row with its second field replaced by cell."""
    fields = row.split(",")
    return ",".join([fields[0], cell, *fields[2:]])


@pytest.mark.parametrize(
    "edit, loads",
    [
        (lambda row: _with_cell(row, "1.5#2"), False),
        (lambda row: _with_cell(row, "1_000"), True),
        (lambda row: row + ",", False),
        (lambda row: row.rsplit(",", 1)[0], False),
        (lambda row: "\n# mid-file comment\n" + row, True),
    ],
    ids=["inline-hash", "underscore-digits", "trailing-comma", "ragged-row", "blank-and-comment"],
)
def test_table_reader_matches_the_line_parser_on_edited_bundles(tmp_path, edit, loads):
    f = tmp_path / "paths.csv"
    save_paths(_small_run(), str(f))
    rows = f.read_text().split("\n")
    rows[4] = edit(rows[4])  # the third data row
    f.write_text("\n".join(rows))
    cells = _same_reading(str(f), "t")
    assert (cells is not None) == loads


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="0123456789+-.eE_#naifINF \t\xa0\x1c\uff11,", max_size=8), min_size=1, max_size=6))
def test_table_reader_matches_the_line_parser_on_any_cells(tmp_path_factory, cells):
    f = tmp_path_factory.mktemp("cells") / "t.csv"
    f.write_text("t,a\n0,1\n" + "\n".join(f"1,{cell}" for cell in cells) + "\n")
    _same_reading(str(f), "t")


def test_path_bundle_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((3, 40)) * np.logspace(-300, 300, 40)
    values[:, 0] = 0.0
    values[1, 1:4] = (-0.0, 5e-324, np.nextafter(1.0, 2.0))
    ps = PathSet(TimeGrid(0.0, 0.1, 40), values, "Y", K)
    f = str(tmp_path / "paths.csv")
    save_paths(ps, f)
    back = load_paths(f)
    assert back.values.tobytes() == ps.values.tobytes()
    assert back.grid.times.tobytes() == ps.grid.times.tobytes()


def _second_cell(line, cell):
    fields = line.split(b",")
    return b",".join([fields[0], cell(fields[1]), *fields[2:]])


def _in_row(edit):
    """An edit of the third data row from the end of a file's lines."""
    return lambda lines: [*lines[:-4], edit(lines[-4]), *lines[-3:]]


NAMES = {"east": "Z\u00fcrich", "path_1": "\u6771\u4eac"}


def _non_ascii(text: bytes) -> bytes:
    import locale

    for old, new in NAMES.items():
        text = text.replace(old.encode(), new.encode(locale.getpreferredencoding(False)))
    return text


# each edit maps the lines of a written bundle or count table (its last
# line the empty one after the final newline) to those of another file
# and says whether the C reader takes the result
EDITS = {
    "as-written": (lambda lines: lines, True),
    "crlf": (lambda lines: [line + b"\r" for line in lines[:-1]] + [b""], False),
    "blank-line": (lambda lines: [*lines[:-4], b"", *lines[-4:]], False),
    "comment-line": (lambda lines: [*lines[:-4], b"# note", *lines[-4:]], False),
    "spaces": (_in_row(lambda row: row.replace(b",", b" , ", 1)), False),
    "plus": (_in_row(lambda row: _second_cell(row, lambda cell: b"+" + cell)), False),
    "no-integer-digits": (_in_row(lambda row: _second_cell(row, lambda cell: b".5")), False),
    "no-fraction-digits": (_in_row(lambda row: _second_cell(row, lambda cell: b"5.")), False),
    "capital-exponent": (_in_row(lambda row: _second_cell(row, lambda cell: b"1E5")), True),
    "inf": (_in_row(lambda row: _second_cell(row, lambda cell: b"inf")), False),
    "nan": (_in_row(lambda row: _second_cell(row, lambda cell: b"nan")), False),
    "underscore": (_in_row(lambda row: _second_cell(row, lambda cell: b"1_000")), False),
    "non-numeric": (_in_row(lambda row: _second_cell(row, lambda cell: b"x")), False),
    "wrong-width": (_in_row(lambda row: row.rsplit(b",", 1)[0]), False),
    "no-final-newline": (lambda lines: lines[:-1], False),
    "trailing-blank-line": (lambda lines: [*lines, b""], False),
    "many-blank-lines": (lambda lines: [*lines, *[b""] * 1000], False),
    "cr-in-comment": (lambda lines: [b"# one\r# two", *lines], False),
    "non-ascii-names": (lambda lines: [_non_ascii(line) for line in lines], True),
}


def _reading(read):
    """read()'s result as comparable values, or the message of its ValueError."""
    try:
        result = read()
    except ValueError as exc:
        return f"ValueError: {exc}"
    if isinstance(result, PathSet):
        return result.grid, result.capacity, result.values.tobytes()
    if isinstance(result, RawSeriesTable):
        return result.locations, result.times.tobytes(), result.counts.tobytes(), result.populations.tobytes()
    header, lines, cells = result
    return header, lines, cells.shape, cells.tobytes()


@pytest.mark.parametrize("name", EDITS)
def test_the_c_reader_takes_written_files_and_hands_back_the_rest_to_read_as_before(tmp_path, kernel_states, name):
    edit, taken = EDITS[name]
    bundle, counts, populations = (str(tmp_path / file) for file in ("paths.csv", "counts.csv", "pops.csv"))
    save_paths(_small_run(), bundle)
    table = _table_of(
        np.arange(6.0), {"east": np.arange(1.0, 7.0), "west": np.arange(6.0) * 0.5 + 1.0}, {"east": 1e3, "west": 2e3}
    )
    save_raw_series(table, counts, populations)
    for path in (bundle, counts):
        Path(path).write_bytes(b"\n".join(edit(Path(path).read_bytes().split(b"\n"))))
    if name == "non-ascii-names":
        Path(populations).write_bytes(_non_ascii(Path(populations).read_bytes()))
    readers = [
        lambda: _read_table(bundle, "t"),
        lambda: _read_table(counts, "time"),
        lambda: load_paths(bundle),
        lambda: load_csv(counts, populations),
    ]
    readings = {}
    for state in kernel_states:  # the C reader, then the text reader alone
        if state == "kernel":
            assert (_read_table_in_c(bundle, "t") is not None) == taken
            assert (_read_table_in_c(counts, "time") is not None) == taken
        readings[state] = [_reading(read) for read in readers]
    assert readings.get("kernel", readings["fallback"]) == readings["fallback"]


def test_config_hash_tracks_content():
    payload = {"alpha": 1, "beta": [1, 2]}
    assert config_hash(payload) == config_hash({"beta": [1, 2], "alpha": 1})
    assert config_hash(payload) != config_hash({"alpha": 2, "beta": [1, 2]})
    assert META_RE.match(metadata_line(payload, 42))


# ------------------------------------------------------------- report tables


def _tiny_reports():
    configs = [
        ExperimentConfig(
            label=label, rates=PAIR, x0=20.0, grid=TimeGrid(0.0, 0.1, 51),
            n_paths=4, replicates=12, master_seed=5, stride=4)
        for label in ("row1", "row2")
    ]
    return [run_experiment(c) for c in configs]


def test_report_writers_layouts(tmp_path):
    reports = _tiny_reports()
    t1 = str(tmp_path / "table1.csv")
    rows = [r for rep in reports for r in homogeneous_error_rows(rep)]
    write_table1(rows, t1, payload={"runs": 2}, seed=5)
    lines = Path(t1).read_text().splitlines()
    assert META_RE.match(lines[0])
    assert lines[1] == "case,method,lambda_true,sigma2_true,mre_lambda,mre_sigma2"
    assert len(lines) == 2 + 4  # two methods per report

    bands = str(tmp_path / "bands.csv")
    write_bands(reports[0], bands)
    lines = Path(bands).read_text().splitlines()
    assert lines[1] == (
        "t,lambda_mean,lambda_sd,lambda_lower,lambda_upper,"
        "sigma2_mean,sigma2_sd,sigma2_lower,sigma2_upper"
    )
    assert len(lines) == 2 + 51
    row = [float(v) for v in lines[2].split(",")]
    assert row[3] == pytest.approx(row[1] - row[2], rel=1e-12)
    assert row[4] == pytest.approx(row[1] + row[2], rel=1e-12)

    box = str(tmp_path / "boxplot.csv")
    write_boxplot(reports, box, seed=5)
    lines = Path(box).read_text().splitlines()
    assert lines[1] == "case,method,param,min,q1,median,q3,max,outliers"
    assert len(lines) > 2

    kde_f = str(tmp_path / "kde.csv")
    write_kde(reports, kde_f, seed=5)
    lines = Path(kde_f).read_text().splitlines()
    assert lines[1] == "case,method,param,bandwidth,x,density"
    assert len(lines) > 100


def test_report_writers_deterministic(tmp_path):
    reports = _tiny_reports()
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_bands(reports[0], a)
    write_bands(reports[0], b)
    assert Path(a).read_bytes() == Path(b).read_bytes()
    write_kde(reports, a, seed=5)
    write_kde(reports, b, seed=5)
    assert Path(a).read_bytes() == Path(b).read_bytes()


# ------------------------------------------------------------------ raw series


def test_load_csv_round_trip(tmp_path):
    table = _table_of(
        times=np.array([0.0, 1.0, 2.0, 3.0]),
        counts={
            "east": np.array([1.0, 0.0, 2.0, 4.0]),
            "west": np.array([0.0, 3.0, 1.0, 1.0]),
        },
        populations={"east": 1000.0, "west": 2500.0},
    )
    cf, pf = str(tmp_path / "counts.csv"), str(tmp_path / "pops.csv")
    save_raw_series(table, cf, pf)
    back = load_csv(cf, pf)
    assert back.locations == ("east", "west")
    assert np.array_equal(back.times, table.times)
    assert np.array_equal(back.counts[1], table.counts[1])
    assert np.array_equal(back.populations, table.populations)


def test_load_csv_error_positions(tmp_path):
    pf = tmp_path / "pops.csv"
    pf.write_text("location,population\na,100\n")

    bad_cell = tmp_path / "c1.csv"
    bad_cell.write_text("time,a\n0,1\n1,x\n")
    with pytest.raises(ValueError, match=r"c1\.csv:3: non-numeric"):
        load_csv(str(bad_cell), str(pf))

    negative = tmp_path / "c2.csv"
    negative.write_text("time,a\n0,1\n1,-2\n")
    with pytest.raises(ValueError, match=r"c2\.csv:3: negative count"):
        load_csv(str(negative), str(pf))

    dup_time = tmp_path / "c3.csv"
    dup_time.write_text("time,a\n0,1\n0,2\n")
    with pytest.raises(ValueError, match=r"c3\.csv:3: duplicate time"):
        load_csv(str(dup_time), str(pf))

    backward = tmp_path / "c4.csv"
    backward.write_text("time,a\n1,1\n0,2\n")
    with pytest.raises(ValueError, match=r"c4\.csv:3: backward time"):
        load_csv(str(backward), str(pf))

    bad_header = tmp_path / "c5.csv"
    bad_header.write_text("when,a\n0,1\n")
    with pytest.raises(ValueError, match="expected header time"):
        load_csv(str(bad_header), str(pf))

    ragged = tmp_path / "c6.csv"
    ragged.write_text("time,a\n0,1\n1\n")
    with pytest.raises(ValueError, match=r"c6\.csv:3: expected 2 fields"):
        load_csv(str(ragged), str(pf))


def test_non_finite_times_are_refused(tmp_path):
    # a nan time passes every ordering test; a window would then drop its row
    pf = tmp_path / "pops.csv"
    pf.write_text("location,population\na,100\n")
    for i, (rows, lineno, cell) in enumerate(
        [("0,1\nnan,2\n2,3\n", 3, "nan"), ("-inf,1\n0,2\n", 2, "-inf"), ("0,1\n1,2\ninf,3\n", 4, "inf")]
    ):
        cf = tmp_path / f"t{i}.csv"
        cf.write_text("time,a\n" + rows)
        with pytest.raises(ValueError, match=rf"t{i}\.csv:{lineno}: time {cell} is not finite"):
            load_csv(str(cf), str(pf))
    table = _table_of(np.array([0.0, np.nan, 2.0]), {"a": np.ones(3)}, {"a": 100.0})
    with pytest.raises(ValueError, match="observation times must be finite"):
        table.validate()


def test_load_csv_population_errors(tmp_path):
    cf = tmp_path / "counts.csv"
    cf.write_text("time,a\n0,1\n1,2\n")

    bad_header = tmp_path / "p1.csv"
    bad_header.write_text("name,size\na,100\n")
    with pytest.raises(ValueError, match="location,population"):
        load_csv(str(cf), str(bad_header))

    missing = tmp_path / "p2.csv"
    missing.write_text("location,population\nb,100\n")
    with pytest.raises(ValueError, match="missing population.*'a'"):
        load_csv(str(cf), str(missing))

    duplicate = tmp_path / "p3.csv"
    duplicate.write_text("location,population\na,100\na,200\n")
    with pytest.raises(ValueError, match=r"p3\.csv:3: duplicate location"):
        load_csv(str(cf), str(duplicate))

    nonpositive = tmp_path / "p4.csv"
    nonpositive.write_text("location,population\na,0\n")
    with pytest.raises(ValueError, match=r"p4\.csv:2: population must be positive"):
        load_csv(str(cf), str(nonpositive))

    # extra populations beyond the count columns are allowed
    extra = tmp_path / "p5.csv"
    extra.write_text("location,population\na,100\nzz,5\n")
    assert load_csv(str(cf), str(extra)).locations == ("a",)


def test_load_csv_names_the_line_of_non_finite_counts_and_populations(tmp_path):
    pf = tmp_path / "pops.csv"
    pf.write_text("location,population\na,100\nb,100\n")
    for i, (cell, lineno) in enumerate([("nan", 3), ("inf", 4), ("-inf", 2)]):
        rows = ["0,1,1", "1,2,2", "2,3,3"]
        rows[lineno - 2] = rows[lineno - 2][:-1] + cell
        cf = tmp_path / f"c{i}.csv"
        cf.write_text("time,a,b\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=rf"c{i}\.csv:{lineno}: .*count.* for 'b'"):
            load_csv(str(cf), str(pf))
    cf = tmp_path / "counts.csv"
    cf.write_text("time,a\n0,1\n1,2\n")
    for name, pop in (("inf", "inf"), ("nan", "nan")):
        bad = tmp_path / f"p_{name}.csv"
        bad.write_text(f"location,population\na,{pop}\n")
        with pytest.raises(ValueError, match=rf"p_{name}\.csv:2: population must be positive and finite"):
            load_csv(str(cf), str(bad))


def test_load_csv_skips_comments_and_blanks(tmp_path):
    cf = tmp_path / "counts.csv"
    cf.write_text("# provenance comment\n\ntime,a\n0,1\n\n1,2\n")
    pf = tmp_path / "pops.csv"
    pf.write_text("location,population\na,100\n")
    table = load_csv(str(cf), str(pf))
    assert table.times.size == 2


def _two_locations(**fields):
    table = RawSeriesTable(
        times=np.array([0.0, 1.0, 2.0]),
        locations=("a", "b"),
        counts=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        populations=np.array([100.0, 200.0]),
    )
    return dataclasses.replace(table, **fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"counts": np.ones((2, 4))}, r"counts must be \(2, 3\) and populations \(2,\)"),
        ({"counts": np.ones(3)}, r"counts must be \(2, 3\)"),
        ({"populations": np.array([100.0, 200.0, 300.0])}, r"populations \(2,\) .*not \(2, 3\) and \(3,\)"),
        ({"locations": ("a", "a")}, "location names must be unique and nonempty"),
        ({"locations": ("a", "")}, "location names must be unique and nonempty"),
        ({"locations": ()}, "need at least one location"),
        ({"counts": np.array([[1.0, 2.0, 3.0], [4.0, -5.0, 6.0]])}, "location 'b': counts must be finite and >= 0"),
        ({"counts": np.array([[1.0, 2.0, np.nan], [4.0, 5.0, 6.0]])}, "location 'a': counts must be finite and >= 0"),
        ({"counts": np.array([[1.0, 2.0, 3.0], [np.inf, 5.0, 6.0]])}, "location 'b': counts must be finite and >= 0"),
        ({"counts": np.array([[-1.0, 2.0, 3.0], [np.inf, 5.0, 6.0]])}, "location 'a': counts must be finite and >= 0"),
        ({"populations": np.array([100.0, 0.0])}, "location 'b': population must be positive and finite"),
        ({"populations": np.array([-1.0, 200.0])}, "location 'a': population must be positive and finite"),
        ({"populations": np.array([100.0, np.nan])}, "location 'b': population must be positive and finite"),
        ({"populations": np.array([np.inf, 200.0])}, "location 'a': population must be positive and finite"),
    ],
)
def test_raw_series_table_validation_names_the_bad_field(fields, message):
    _two_locations().validate()
    with pytest.raises(ValueError, match=message):
        _two_locations(**fields).validate()


# --------------------------------------------------------------- preprocessing


def test_cumulate_normalize_frozen_values():
    ps = cumulate_normalize(_table(), 0.25)
    assert np.allclose(ps.values[0], [0.02, 0.05, 0.10])
    assert ps.space == "X"
    assert ps.grid.t0 == 0.0 and ps.grid.delta == 1.0 and ps.grid.n == 3
    assert ps.meta["normalization"] == "per_location"
    assert np.all(np.diff(ps.values[0]) >= 0)


def test_cumulate_normalize_capacity_error_and_no_clip():
    with pytest.raises(ValueError, match="increase capacity"):
        cumulate_normalize(_table(), 0.05)
    ps = cumulate_normalize(_table(counts=(2.0, 3.0, 20.0 - 1e-8)), 0.25)
    # the last value lies within CLIP_EPS*K of K; only the transform clips it
    assert ps.values[0, -1] == np.cumsum([2.0, 3.0, 20.0 - 1e-8])[-1] / 100.0
    assert ps.values[0, -1] > (1.0 - CLIP_EPS) * 0.25
    assert "clip_count" not in ps.meta


def test_cumulate_normalize_refuses_zero_first_counts():
    # one zero start among five locations used to be clipped to clip_eps K
    # and taken as that path's reference, so its Y path jumped by about 20:
    # here the MLE went from (0.072, 0.011) to (0.126, 0.881)
    rng = np.random.default_rng(2)
    counts = {f"loc{i}": rng.poisson(3.0, 60).astype(float) for i in range(5)}
    table = _table_of(np.arange(60.0), counts, {name: 1000.0 for name in counts})
    assert estimate_pipeline(cumulate_normalize(table, 0.5)).mle[1] < 0.05
    table.counts[2, 0] = 0.0
    with pytest.raises(ValueError, match=r"first count is 0 at location\(s\) 'loc2';"):
        cumulate_normalize(table, 0.5)


def test_cumulate_normalize_refuses_tiny_first_values():
    # clipped up to CLIP_EPS*K and taken as the path's reference, a first
    # value below CLIP_EPS*K would give the same jump of about 20 as a zero
    rng = np.random.default_rng(2)
    counts = {f"loc{i}": rng.poisson(3.0, 60).astype(float) + 1.0 for i in range(5)}
    counts["loc1"][0] = 0.0
    counts["loc2"][0] = 1e-7
    counts["loc4"][0] = 1e-8
    table = _table_of(np.arange(60.0), counts, {name: 1000.0 for name in counts})
    with pytest.raises(
        ValueError,
        match=r"first count is 0 at location\(s\) 'loc1'; "
        r"first normalized value is below 1e-09\*capacity at location\(s\) 'loc2', 'loc4';",
    ):
        cumulate_normalize(table, 0.25)
    # a start exactly at CLIP_EPS*K is kept as it is; the next float down is refused
    lo = CLIP_EPS * 10.0
    ps = cumulate_normalize(_table(counts=(lo, 3.0, 5.0), pop=1.0), 10.0)
    assert ps.values[0, 0] == lo
    with pytest.raises(ValueError, match=r"below 1e-09\*capacity at location\(s\) 'loc01';"):
        cumulate_normalize(_table(counts=(np.nextafter(lo, 0.0), 3.0, 5.0), pop=1.0), 10.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 8).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 50), min_size=n, max_size=n), min_size=1, max_size=5)
    )
)
def test_zero_first_count_is_refused_exactly_when_present(rows):
    counts = {f"loc{i}": np.asarray(r, dtype=float) for i, r in enumerate(rows)}
    table = _table_of(np.arange(float(len(rows[0]))), counts, {n: 1e4 for n in counts})
    zero_start = [n for n, c in counts.items() if c[0] == 0.0]
    if zero_start:
        with pytest.raises(ValueError) as err:
            cumulate_normalize(table, 1.0)
        assert ", ".join(map(repr, zero_start)) + ";" in str(err.value)
    else:
        assert cumulate_normalize(table, 1.0).n_paths == len(rows)


def test_cumulate_normalize_global_population():
    table = _table_of(
        times=np.array([0.0, 1.0]),
        counts={"a": np.array([2.0, 2.0]), "b": np.array([2.0, 2.0])},
        populations={"a": 100.0, "b": 400.0},
    )
    per = cumulate_normalize(table, 0.5)
    glob_ = cumulate_normalize(table, 0.5, global_population=True)
    assert per.values[0, 1] == pytest.approx(0.04)
    assert per.values[1, 1] == pytest.approx(0.01)
    assert glob_.values[0, 1] == pytest.approx(0.01)
    assert glob_.values[1, 1] == pytest.approx(0.01)
    assert glob_.meta["normalization"] == "global_max"


def test_cumulate_normalize_time_units():
    cal = cumulate_normalize(_table(times=(3.0, 3.5, 4.0)), 0.25, time_unit="calendar")
    assert cal.grid.t0 == 3.0
    assert cal.grid.delta == pytest.approx(0.5)
    idx = cumulate_normalize(_table(times=(3.0, 3.5, 4.0)), 0.25, time_unit="index")
    assert idx.grid.t0 == 0.0 and idx.grid.delta == 1.0
    with pytest.raises(ValueError, match="uniform"):
        cumulate_normalize(_table(times=(0.0, 0.5, 2.0)), 0.25, time_unit="calendar")
    with pytest.raises(ValueError, match="time_unit"):
        cumulate_normalize(_table(), 0.25, time_unit="weeks")


def test_cumulate_normalize_window():
    table = _table(times=(0.0, 1.0, 2.0), counts=(2.0, 3.0, 5.0))
    sub = cumulate_normalize(table, 0.25, time_unit="calendar", window=(0.5, 2.5))
    assert np.array_equal(sub.grid.times, [1.0, 2.0])
    with pytest.raises(ValueError, match="fewer than two observations"):
        cumulate_normalize(table, 0.25, window=(10.0, 20.0))


def test_windowed_paths_keep_the_earlier_prevalence():
    counts = np.arange(2.0, 12.0)  # 2, 3, 4, 5, ... at times 0, 1, 2, ...
    table = _table(times=np.arange(10.0), counts=counts)
    windowed = cumulate_normalize(table, 1.0, window=(3.0, 5.0))
    assert np.array_equal(table.counts[0], counts)  # the input is left as it was
    assert windowed.values[0, 0] == pytest.approx(0.14, rel=1e-15)
    # the windowed path is the slice of the whole path, bit for bit
    whole = cumulate_normalize(table, 1.0)
    assert np.array_equal(windowed.values, whole.values[:, 3:6])


@settings(max_examples=40, deadline=None)
@given(
    n_locations=st.integers(2, 24),
    n_times=st.integers(8, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_windowed_estimate_is_the_estimate_of_the_whole_paths_slice(n_locations, n_times, seed, data):
    # a boolean column index returns Fortran order; numpy then sums the
    # moments across locations in another order and the estimate's last
    # bits move, so the window must hand the pipeline C-ordered values
    lo = data.draw(st.integers(0, n_times - 6))
    hi = data.draw(st.integers(lo + 5, n_times - 1))
    rng = np.random.default_rng(seed)
    table = RawSeriesTable(
        times=np.arange(float(n_times)),
        locations=tuple(f"loc{i}" for i in range(n_locations)),
        counts=rng.poisson(3.0, (n_locations, n_times)) + 1.0,
        populations=rng.integers(1000, 5000, n_locations).astype(float),
    )
    window = (lo - data.draw(st.floats(0.0, 0.9)), hi + data.draw(st.floats(0.0, 0.9)))
    paths, est = analyze_series(table, AnalysisConfig(capacity=1.0, time_window=window))
    whole = cumulate_normalize(table, 1.0)
    sliced = PathSet(paths.grid, np.ascontiguousarray(whole.values[:, lo : hi + 1]), "X", 1.0)
    expected = estimate_pipeline(sliced, stride=1, with_mle=True)
    assert np.array_equal(paths.values, sliced.values)
    times = paths.grid.times
    assert np.array_equal(est.lambda_hat(times), expected.lambda_hat(times))
    assert np.array_equal(est.sigma2_hat_raw(times), expected.sigma2_hat_raw(times))
    assert est.mle == expected.mle
    assert est.diagnostics == expected.diagnostics


def test_suggest_capacity():
    assert suggest_K(np.array([0.1, 0.238])) == pytest.approx(0.238 * 1.05, rel=1e-12)
    ps = cumulate_normalize(_table(), 0.25)
    assert suggest_K(ps) == pytest.approx(0.10 * 1.05, rel=1e-12)


@pytest.mark.parametrize("stride", [True, 2.5, "3"])
def test_analysis_config_refuses_non_integer_strides(stride):
    with pytest.raises(ValueError, match=f"^stride must be an integer, not {stride!r}$"):
        AnalysisConfig(capacity=0.25, stride=stride)
    AnalysisConfig(capacity=0.25, stride=np.int64(3))


def test_analysis_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(capacity=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(capacity=1.0, stride=0)
    with pytest.raises(ValueError):
        AnalysisConfig(capacity=1.0, time_unit="weeks")
    with pytest.raises(ValueError):
        AnalysisConfig(capacity=1.0, time_window=(5.0, 1.0))


def test_analyze_series_end_to_end():
    rng = np.random.default_rng(8)
    times = np.arange(40.0)
    table = _table_of(
        times=times,
        counts={
            "a": rng.poisson(3.0, 40).astype(float),
            "b": rng.poisson(2.0, 40).astype(float),
            "c": rng.poisson(4.0, 40).astype(float),
        },
        populations={"a": 5000.0, "b": 4000.0, "c": 8000.0},
    )
    paths, est = analyze_series(table, AnalysisConfig(capacity=0.2))
    assert paths.values.shape == (3, 40)
    assert est.mle is not None
    assert est.mle[0] > 0.0
    # location b has no cases at t = 5 and 6, but 9 before t = 5: its
    # windowed path starts at that prevalence
    windowed, _ = analyze_series(table, AnalysisConfig(capacity=0.2, time_window=(5.0, 30.0)))
    assert windowed.values.shape[1] == 26
    assert windowed.values[1, 0] == np.sum(table.counts[1, :6]) / 4000.0 == 9.0 / 4000.0
    assert np.array_equal(windowed.values, paths.values[:, 5:31])
    # a location with no cases at all up to the window start is refused
    table.counts[1, :6] = 0.0
    with pytest.raises(ValueError, match="'b'"):
        analyze_series(table, AnalysisConfig(capacity=0.2, time_window=(5.0, 30.0)))
