import glob
import hashlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidiff import (
    AnalysisConfig,
    EstimateResult,
    ExperimentConfig,
    ExperimentReport,
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
    restrict_window,
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
from sidiff.dataio import save_raw_series
from sidiff.estimate import SplineCurve

K = 200.0
PAIR = RatePair(constant(0.4), constant(0.1), K)

META_RE = re.compile(r"^# config-hash=[0-9a-f]{12} seed=\d+ version=\d+\.\d+\.\d+$")


def _small_run(seed=7):
    return simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 21), 5, seed)


def _table(times=(0.0, 1.0, 2.0), counts=(2.0, 3.0, 5.0), pop=100.0):
    arr = np.asarray(counts, dtype=float)
    return RawSeriesTable(
        times=np.asarray(times, dtype=float),
        counts={"loc01": arr},
        populations={"loc01": pop},
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


def test_load_paths_reports_line_numbers(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("t,path_1\n0.0,20.0\n0.1,oops\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3"):
        load_paths(str(f), capacity=K)


def test_path_csv_layout(tmp_path):
    ps = _small_run()
    f = str(tmp_path / "paths.csv")
    save_paths(ps, f)
    lines = open(f).read().splitlines()
    assert META_RE.match(lines[0])
    assert lines[1] == "t," + ",".join(f"path_{i}" for i in range(1, 6))
    assert len(lines) == 2 + ps.grid.n


# ------------------------------------------------------------- estimate files


def test_save_estimate_layout_and_sidecar(tmp_path):
    ps = _small_run()
    est = estimate_pipeline(ps, stride=2)
    f = str(tmp_path / "estimate.csv")
    save_estimate(est, f, capacity=K, seed=7)
    lines = open(f).read().splitlines()
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
    assert open(a, "rb").read() == open(b, "rb").read()
    save_estimate(est, a, capacity=K, seed=1)
    save_estimate(est, b, capacity=K, seed=1)
    assert open(a, "rb").read() == open(b, "rb").read()


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
        mean_curve=SplineCurve(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 0.5])),
        cov_curve=SplineCurve(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.0625, 0.0625])),
        mu=np.zeros(5),
        nu=np.zeros(4),
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
        master_seed=7, methods=("GMM", "MLE"),
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

    table = RawSeriesTable(
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


def test_writer_bytes_are_pinned(tmp_path):
    _write_every_file_kind(tmp_path)
    got = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(tmp_path.iterdir())
    }
    assert got == PINNED_SHA256


def test_no_partial_files_left_behind(tmp_path):
    ps = _small_run()
    save_paths(ps, str(tmp_path / "out.csv"))
    assert glob.glob(str(tmp_path / "*.part")) == []
    assert glob.glob(str(tmp_path / ".tmp_*")) == []


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
            n_paths=4, replicates=12, master_seed=5, stride=4,
            methods=("GMM", "MLE"))
        for label in ("row1", "row2")
    ]
    return [run_experiment(c) for c in configs]


def test_report_writers_layouts(tmp_path):
    reports = _tiny_reports()
    t1 = str(tmp_path / "table1.csv")
    rows = [r for rep in reports for r in homogeneous_error_rows(rep)]
    write_table1(rows, t1, payload={"runs": 2}, seed=5)
    lines = open(t1).read().splitlines()
    assert META_RE.match(lines[0])
    assert lines[1] == "case,method,lambda_true,sigma2_true,mre_lambda,mre_sigma2"
    assert len(lines) == 2 + 4  # two methods per report

    bands = str(tmp_path / "bands.csv")
    write_bands(reports[0], bands)
    lines = open(bands).read().splitlines()
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
    lines = open(box).read().splitlines()
    assert lines[1] == "case,method,param,min,q1,median,q3,max,outliers"
    assert len(lines) > 2

    kde_f = str(tmp_path / "kde.csv")
    write_kde(reports, kde_f, seed=5)
    lines = open(kde_f).read().splitlines()
    assert lines[1] == "case,method,param,bandwidth,x,density"
    assert len(lines) > 100


def test_report_writers_deterministic(tmp_path):
    reports = _tiny_reports()
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_bands(reports[0], a)
    write_bands(reports[0], b)
    assert open(a, "rb").read() == open(b, "rb").read()
    write_kde(reports, a, seed=5)
    write_kde(reports, b, seed=5)
    assert open(a, "rb").read() == open(b, "rb").read()


# ------------------------------------------------------------------ raw series


def test_load_csv_round_trip(tmp_path):
    table = RawSeriesTable(
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
    assert np.array_equal(back.counts["west"], table.counts["west"])
    assert back.populations == table.populations


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


def test_load_csv_skips_comments_and_blanks(tmp_path):
    cf = tmp_path / "counts.csv"
    cf.write_text("# provenance comment\n\ntime,a\n0,1\n\n1,2\n")
    pf = tmp_path / "pops.csv"
    pf.write_text("location,population\na,100\n")
    table = load_csv(str(cf), str(pf))
    assert table.times.size == 2


# --------------------------------------------------------------- preprocessing


def test_cumulate_normalize_frozen_values():
    ps = cumulate_normalize(_table(), 0.25)
    assert np.allclose(ps.values[0], [0.02, 0.05, 0.10])
    assert ps.space == "X"
    assert ps.grid.t0 == 0.0 and ps.grid.delta == 1.0 and ps.grid.n == 3
    assert ps.meta["clip_count"] == 0
    assert ps.meta["normalization"] == "per_location"
    assert np.all(np.diff(ps.values[0]) >= 0)


def test_cumulate_normalize_capacity_error_and_clip():
    with pytest.raises(ValueError, match="increase capacity"):
        cumulate_normalize(_table(), 0.05)
    ps = cumulate_normalize(_table(counts=(1e-9, 3.0, 5.0)), 0.25)
    assert ps.meta["clip_count"] == 1  # tiny leading value pulled inside the interval
    assert ps.values[0, 0] > 0.0


def test_cumulate_normalize_refuses_zero_first_counts():
    # one zero start among five locations used to be clipped to clip_eps K
    # and taken as that path's reference, so its Y path jumped by about 20:
    # here the MLE went from (0.072, 0.011) to (0.126, 0.881)
    rng = np.random.default_rng(2)
    counts = {f"loc{i}": rng.poisson(3.0, 60).astype(float) for i in range(5)}
    table = RawSeriesTable(np.arange(60.0), counts, {name: 1000.0 for name in counts})
    assert estimate_pipeline(cumulate_normalize(table, 0.5)).mle[1] < 0.05
    counts["loc2"][0] = 0.0
    with pytest.raises(ValueError, match=r"first count is 0 at location\(s\) 'loc2';"):
        cumulate_normalize(table, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 8).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 50), min_size=n, max_size=n), min_size=1, max_size=5)
    )
)
def test_zero_first_count_is_refused_exactly_when_present(rows):
    counts = {f"loc{i}": np.asarray(r, dtype=float) for i, r in enumerate(rows)}
    table = RawSeriesTable(np.arange(float(len(rows[0]))), counts, {n: 1e4 for n in counts})
    zero_start = [n for n, c in counts.items() if c[0] == 0.0]
    if zero_start:
        with pytest.raises(ValueError) as err:
            cumulate_normalize(table, 1.0)
        assert ", ".join(map(repr, zero_start)) + ";" in str(err.value)
    else:
        assert cumulate_normalize(table, 1.0).n_paths == len(rows)


def test_cumulate_normalize_global_population():
    table = RawSeriesTable(
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


def test_restrict_window():
    table = _table(times=(0.0, 1.0, 2.0), counts=(2.0, 3.0, 5.0))
    sub = restrict_window(table, 0.5, 2.5)
    assert np.array_equal(sub.times, [1.0, 2.0])
    with pytest.raises(ValueError):
        restrict_window(table, 10.0, 20.0)


def test_windowed_paths_keep_the_earlier_prevalence():
    counts = np.arange(2.0, 12.0)  # 2, 3, 4, 5, ... at times 0, 1, 2, ...
    table = _table(times=np.arange(10.0), counts=counts)
    sub = restrict_window(table, 3.0, 5.0)
    assert np.array_equal(sub.counts["loc01"], [14.0, 6.0, 7.0])
    assert np.array_equal(table.counts["loc01"], counts)  # the input is left as it was
    windowed = cumulate_normalize(sub, 1.0)
    assert windowed.values[0, 0] == pytest.approx(0.14, rel=1e-15)
    # the windowed path is the slice of the whole path, bit for bit
    whole = cumulate_normalize(table, 1.0)
    assert np.array_equal(windowed.values, whole.values[:, 3:6])


def test_suggest_capacity():
    assert suggest_K(np.array([0.1, 0.238])) == pytest.approx(0.238 * 1.05, rel=1e-12)
    ps = cumulate_normalize(_table(), 0.25)
    assert suggest_K(ps) == pytest.approx(0.10 * 1.05, rel=1e-12)
    with pytest.raises(ValueError):
        suggest_K(np.array([0.1]), factor=1.0)


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
    table = RawSeriesTable(
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
    assert windowed.values[1, 0] == np.sum(table.counts["b"][:6]) / 4000.0 == 9.0 / 4000.0
    assert np.array_equal(windowed.values, paths.values[:, 5:31])
    # a location with no cases at all up to the window start is refused
    table.counts["b"][:6] = 0.0
    with pytest.raises(ValueError, match="'b'"):
        analyze_series(table, AnalysisConfig(capacity=0.2, time_window=(5.0, 30.0)))
