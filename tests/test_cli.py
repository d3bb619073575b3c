import hashlib
import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sidiff import RawSeriesTable, load_paths
from sidiff.cli import _experiment_configs, main
from sidiff.dataio import save_raw_series
from sidiff.experiments import BAND_MIN_REPLICATES, KDE_MIN_VALUES, case_config, run_experiment, table1_config
from sidiff.model import CLIP_EPS
from sidiff.synthetic import measles_like_table

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SEED = 20260819

RATES_JSON = {
    "transmission": {"kind": "constant", "params": {"value": 0.4}},
    "noise": {"kind": "constant", "params": {"value": 0.1}},
}


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _raw_series_files(tmp_path):
    rng = np.random.default_rng(21)
    table = RawSeriesTable(
        times=np.arange(30.0),
        locations=("a", "b"),
        counts=np.array([rng.poisson(3.0, 30), rng.poisson(2.0, 30)], dtype=float),
        populations=np.array([4000.0, 6000.0]),
    )
    cf, pf = str(tmp_path / "counts.csv"), str(tmp_path / "pops.csv")
    save_raw_series(table, cf, pf)
    return cf, pf


# ------------------------------------------------------------ simulate + estimate


def test_simulate_then_estimate_round_trip(tmp_path, capsys):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    paths_csv = str(tmp_path / "paths.csv")
    rc = main([
        "simulate", "--config", cfg, "--x0", "20", "--K", "200",
        "--T", "5", "--delta", "0.01", "--paths", "30", "--seed", "7",
        "--out", paths_csv,
    ])
    assert rc == 0
    ps = load_paths(paths_csv)
    assert ps.values.shape == (30, 501)

    est_csv = str(tmp_path / "estimate.csv")
    rc = main(["estimate", "--in", paths_csv, "--K", "200", "--stride", "5",
               "--out", est_csv])
    assert rc == 0
    sidecar = json.loads(Path(est_csv + ".meta.json").read_text())
    lam_hat, s2_hat = sidecar["mle"]
    # 30 paths over 5 time units: sd of the rate fit is about 0.026
    assert abs(lam_hat - 0.4) < 0.1
    assert abs(s2_hat - 0.1) < 0.02
    header = Path(est_csv).read_text().splitlines()[1]
    assert header == "t,lambda_hat,sigma2_hat_raw,sigma2_hat_floored"


def test_simulate_em_variant(tmp_path):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    out = str(tmp_path / "em.csv")
    rc = main([
        "simulate", "--config", cfg, "--x0", "20", "--K", "200",
        "--T", "2", "--delta", "0.1", "--paths", "4", "--seed", "3",
        "--simulator", "em", "--refine", "5", "--drift-correction", "state",
        "--out", out,
    ])
    assert rc == 0
    sidecar = json.loads(Path(out + ".meta.json").read_text())
    assert sidecar["meta"]["refine"] == 5


@pytest.mark.parametrize("x0", [math.nextafter(CLIP_EPS * 200.0, 0.0), math.nextafter((1.0 - CLIP_EPS) * 200.0, 200.0)],
                         ids=["below", "above"])
def test_simulate_em_refuses_an_x0_outside_the_clamp_band(tmp_path, capsys, x0):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    out = tmp_path / "o.csv"
    args = ["simulate", "--config", cfg, "--x0", repr(x0), "--K", "200", "--T", "1", "--delta", "0.1",
            "--out", str(out)]
    assert main([*args, "--simulator", "em"]) == 1
    assert "data error: x0 must lie in the Euler-Maruyama clamp band" in capsys.readouterr().err
    assert not out.exists()
    assert main(args) == 0  # the exact sampler takes it
    assert load_paths(str(out)).values[0, 0] == x0


# ------------------------------------------------------------------ exit codes


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["estimate", "--in", "x.csv", "--out", "y.csv"]) == 2  # no --K
    assert main(["frobnicate"]) == 2


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("sidiff ")


def test_bad_json_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["simulate", "--config", str(bad), "--x0", "20", "--K", "200",
               "--T", "1", "--delta", "0.1", "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_config_json_is_a_config_error_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "exp.json"
    bad.write_text('{"rows": [')
    out_dir = tmp_path / "o"
    assert main(["experiment", "--config", str(bad), "--out-dir", str(out_dir)]) == 1
    assert f"sidiff: config error: {bad}: Expecting value: line 1 column 11" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_file_is_an_io_error(tmp_path, capsys):
    rc = main(["estimate", "--in", str(tmp_path / "nope.csv"), "--K", "200",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "io error" in capsys.readouterr().err


def test_unknown_rate_kind_is_a_data_error(tmp_path, capsys):
    cfg = _write_json(tmp_path / "rates.json", {
        "transmission": {"kind": "quadratic", "params": {"value": 1.0}},
        "noise": {"kind": "constant", "params": {"value": 0.1}},
    })
    rc = main(["simulate", "--config", cfg, "--x0", "20", "--K", "200",
               "--T", "1", "--delta", "0.1", "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "descriptor, named",
    [
        ({"kind": "constant", "params": [0.4]}, "'params'"),
        ({"kind": "constant", "params": {"value": [0.4]}}, "'value'"),
        ({"kind": "constant", "params": {"value": True}}, "'value'"),
        ({"kind": "sinusoid", "params": {"offset": 0.4, "amplitude": "1", "omega": 1.0}}, "'amplitude'"),
        ({"kind": "tabulated", "params": {"times": 5, "values": [0.1]}}, "'times'"),
        ({"kind": "tabulated", "params": {"times": [0.0, 1.0], "values": [0.1, None]}}, "'values'"),
        ({"kind": "tabulated", "params": {"times": [0.0, False], "values": [0.1, 0.2]}}, "'times'"),
    ],
)
def test_malformed_rate_params_are_data_errors_naming_the_key(tmp_path, capsys, descriptor, named):
    cfg = _write_json(tmp_path / "rates.json", {**RATES_JSON, "transmission": descriptor})
    rc = main(["simulate", "--config", cfg, "--x0", "20", "--K", "200",
               "--T", "1", "--delta", "0.1", "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "data error:" in err and named in err


@pytest.mark.parametrize(
    "flags",
    [["--refine", "0"], ["--drift-correction", "constant"], ["--refine", "2", "--drift-correction", "state"]],
    ids=["refine", "drift-correction", "both"],
)
def test_simulate_refuses_euler_maruyama_flags_without_the_em_simulator(tmp_path, capsys, flags):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    out = tmp_path / "o.csv"
    rc = main(["simulate", "--config", cfg, "--x0", "20", "--K", "200",
               "--T", "1", "--delta", "0.1", "--out", str(out), *flags])
    assert rc == 1
    assert "data error: --refine and --drift-correction apply to --simulator em only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rates, named",
    [
        (
            {**RATES_JSON, "transmission": {"kind": "sinusoid",
                                            "params": {"offset": 0.4, "amplitude": 1.0, "omega": 1.0, "phse": 1.5}}},
            "'phse'",
        ),
        ({**RATES_JSON, "noise": {**RATES_JSON["noise"], "label": "sigma"}}, "descriptor"),
        ({**RATES_JSON, "capacity": 500.0}, "'capacity'"),
    ],
    ids=["misspelled-param", "extra-descriptor-key", "capacity-key"],
)
def test_simulate_refuses_unknown_rate_keys(tmp_path, capsys, rates, named):
    cfg = _write_json(tmp_path / "rates.json", rates)
    out = tmp_path / "o.csv"
    rc = main(["simulate", "--config", cfg, "--x0", "20", "--K", "200",
               "--T", "1", "--delta", "0.1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "data error:" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "sidecar, named",
    [
        ([], "JSON object"),
        ({"capacity": 200.0, "seed": 5}, "'seed'"),
        ({"capacity": 200.0, "meta": [1]}, "'meta'"),
        ({"capacity": True}, "'capacity'"),
        ({"capacity": "200"}, "'capacity'"),
    ],
    ids=["list", "int-seed", "list-meta", "bool-capacity", "string-capacity"],
)
def test_estimate_refuses_malformed_sidecars(tmp_path, capsys, sidecar, named):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    paths_csv = str(tmp_path / "paths.csv")
    assert main(["simulate", "--config", cfg, "--x0", "20", "--K", "200",
                 "--T", "1", "--delta", "0.1", "--paths", "4", "--out", paths_csv]) == 0
    _write_json(tmp_path / "paths.csv.meta.json", sidecar)
    capsys.readouterr()
    rc = main(["estimate", "--in", paths_csv, "--K", "200", "--out", str(tmp_path / "e.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "data error:" in err and "paths.csv.meta.json" in err and named in err


@pytest.mark.parametrize("master_seed", [2.7, -3, True, "7"])
def test_estimate_refuses_a_sidecar_master_seed_that_is_not_a_nonnegative_integer(
    tmp_path, capsys, master_seed
):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    paths_csv = str(tmp_path / "paths.csv")
    assert main(["simulate", "--config", cfg, "--x0", "20", "--K", "200",
                 "--T", "1", "--delta", "0.1", "--paths", "4", "--out", paths_csv]) == 0
    _write_json(tmp_path / "paths.csv.meta.json", {"capacity": 200.0, "seed": {"master_seed": master_seed}})
    capsys.readouterr()
    out = tmp_path / "e.csv"
    assert main(["estimate", "--in", paths_csv, "--K", "200", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "data error:" in err and "paths.csv.meta.json" in err and "'master_seed'" in err
    assert not out.exists()


def test_estimate_refuses_a_sidecar_that_is_not_json_naming_it(tmp_path, capsys):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    paths_csv = str(tmp_path / "paths.csv")
    assert main(["simulate", "--config", cfg, "--x0", "20", "--K", "200",
                 "--T", "1", "--delta", "0.1", "--paths", "4", "--out", paths_csv]) == 0
    Path(paths_csv + ".meta.json").write_text('{"capacity": 200,\n')
    capsys.readouterr()
    assert main(["estimate", "--in", paths_csv, "--K", "200", "--out", str(tmp_path / "e.csv")]) == 1
    err = capsys.readouterr().err
    assert f"sidiff: data error: {paths_csv}.meta.json: malformed JSON (Expecting property name" in err


def test_estimate_refuses_a_capacity_below_the_paths_naming_the_bundle(tmp_path, capsys):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    paths_csv = str(tmp_path / "paths.csv")
    assert main(["simulate", "--config", cfg, "--x0", "20", "--K", "200",
                 "--T", "1", "--delta", "0.1", "--paths", "4", "--out", paths_csv]) == 0
    top = float(load_paths(paths_csv).values.max())
    capsys.readouterr()
    out = tmp_path / "e.csv"
    assert main(["estimate", "--in", paths_csv, "--K", "20", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"data error: {paths_csv}: X-space paths must stay strictly inside (0, 20.0), got {top!r}" in err
    assert not out.exists()


def test_estimate_refuses_a_nan_capacity(tmp_path, capsys):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    paths_csv = str(tmp_path / "paths.csv")
    assert main(["simulate", "--config", cfg, "--x0", "20", "--K", "200",
                 "--T", "1", "--delta", "0.1", "--paths", "4", "--out", paths_csv]) == 0
    capsys.readouterr()
    assert main(["estimate", "--in", paths_csv, "--K", "nan", "--out", str(tmp_path / "e.csv")]) == 1
    assert "data error: capacity must be positive and finite, got nan" in capsys.readouterr().err


def test_degenerate_grid_spans_are_data_errors(tmp_path, capsys):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    simulate = ["simulate", "--config", cfg, "--x0", "20", "--K", "200", "--out", str(tmp_path / "o.csv")]
    for span in (["--T", "1", "--delta", "0"], ["--T", "inf", "--delta", "0.1"],
                 ["--T", "1", "--delta", "-0.1"], ["--T", "1", "--delta", "nan"],
                 ["--t0=-inf", "--T", "1", "--delta", "0.1"]):
        assert main(simulate + span) == 1, span
        assert "data error: grid" in capsys.readouterr().err
    exp = _write_json(tmp_path / "exp.json", {**EXPERIMENT_CFG, "delta": 0})
    out_dir = tmp_path / "exp"
    assert main(["experiment", "--config", exp, "--out-dir", str(out_dir)]) == 1
    assert "data error: grid step" in capsys.readouterr().err
    assert not out_dir.exists()


# ------------------------------------------------------------------ experiment


EXPERIMENT_CFG = {
    "rows": [{"transmission": 0.4, "noise": 0.1}],
    "cases": ["a"],
    "replicates": 12,
    "n_paths": 8,
    "stride": 4,
    "T": 5.0,
    "delta": 0.05,
    "master_seed": 11,
}


def test_experiment_writes_all_reports(tmp_path, capsys):
    cfg = _write_json(tmp_path / "exp.json", EXPERIMENT_CFG)
    out_dir = str(tmp_path / "out")
    rc = main(["experiment", "--config", cfg, "--out-dir", out_dir])
    assert rc == 0
    produced = sorted(os.listdir(out_dir))
    assert produced == ["bands_case_a.csv", "boxplot.csv", "kde.csv", "table1.csv"]
    table1 = Path(out_dir, "table1.csv").read_text().splitlines()
    assert table1[1] == "case,method,lambda_true,sigma2_true,mre_lambda,mre_sigma2"
    assert len(table1) == 4  # MLE and GMM rows for the single case
    bands = Path(out_dir, "bands_case_a.csv").read_text().splitlines()
    assert len(bands) == 2 + 101


def test_experiment_reruns_and_rechunked_runs_are_byte_identical(tmp_path, monkeypatch):
    cfg = _write_json(tmp_path / "exp.json", EXPERIMENT_CFG)
    outs = []
    for name in ("r1", "r2", "r3"):
        if name == "r3":
            # two replicates of 8 paths x 101 points per Euler-Maruyama
            # batch, where the standard budget holds all 12 replicates
            monkeypatch.setattr("sidiff.simulate.EM_BATCH_BYTES", 2 * 8 * 8 * 101)
        out_dir = str(tmp_path / name)
        assert main(["experiment", "--config", cfg, "--out-dir", out_dir]) == 0
        outs.append({
            f: Path(out_dir, f).read_bytes()
            for f in sorted(os.listdir(out_dir))
        })
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


# sha256 of a real run's files (version 0.1.0): the writer pins in
# test_dataio use hand-built reports, so this is what pins the numbers
# that run_experiment computes
PINNED_RUN_CFG = {
    "rows": [{"transmission": 0.4, "noise": 0.1}],
    "cases": ["a", "c"],
    "replicates": 12,
    "n_paths": 8,
    "stride": 4,
    "T": 10.0,
    "delta": 0.05,
    "master_seed": 5,
}
PINNED_RUN_SHA256 = {
    "bands_case_a.csv": "7c08c8364758d89b7bae950421df96703713cd8b77d2e4143078e1fe29874520",
    "bands_case_c.csv": "d18fb1ccefec1369d94ab15d15ff6007c0abad1b91611fe2dc62dbb5ce501f20",
    "boxplot.csv": "11bbe4adfb7ba87d8e4b311869424edb42c03f06a05bab1757bd1e318aec1b54",
    "kde.csv": "ecc00608c42d92f59f5fd98d38bbebb70e29f3fd5285af307aa36267448179f1",
    "table1.csv": "83ed4789397427bf563ead2cff9e14c728d6dfd1225b315a28cc7982d545581c",
}


def test_experiment_run_bytes_are_pinned(tmp_path):
    cfg = _write_json(tmp_path / "exp.json", PINNED_RUN_CFG)
    out_dir = tmp_path / "out"
    assert main(["experiment", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out_dir.iterdir())}
    assert got == PINNED_RUN_SHA256


def test_experiment_rows_run_the_exact_sampler_when_asked(tmp_path, monkeypatch, capsys):
    def no_em(*args, **kwargs):
        raise AssertionError("an exact row ran the Euler-Maruyama sampler")

    monkeypatch.setattr("sidiff.experiments._em_replicates", no_em)
    cfg = _write_json(tmp_path / "exp.json", {**EXPERIMENT_CFG, "cases": [], "row_simulator": "exact"})
    out_dir = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out-dir", str(out_dir)]) == 0
    assert sorted(os.listdir(out_dir)) == ["boxplot.csv", "kde.csv", "table1.csv"]
    assert "EM clamps: 0," in capsys.readouterr().out


def test_experiment_refuses_an_unknown_row_simulator(tmp_path, capsys):
    cfg = _write_json(tmp_path / "exp.json", {**EXPERIMENT_CFG, "row_simulator": "rk4"})
    out_dir = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out-dir", str(out_dir)]) == 1
    assert "data error: simulator must be one of ('exact', 'em')" in capsys.readouterr().err
    assert not out_dir.exists()


def test_experiment_refuses_a_negative_seed_before_creating_the_directory(tmp_path, capsys):
    cfg = _write_json(tmp_path / "exp.json", EXPERIMENT_CFG)
    out_dir = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out-dir", str(out_dir), "--seed", "-1"]) == 1
    assert "data error: master_seed must be >= 0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_experiment_seed_override_changes_results(tmp_path):
    cfg = _write_json(tmp_path / "exp.json", EXPERIMENT_CFG)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["experiment", "--config", cfg, "--out-dir", a]) == 0
    assert main(["experiment", "--config", cfg, "--out-dir", b, "--seed", "999"]) == 0
    read = lambda d: Path(d, "table1.csv").read_bytes()
    assert read(a) != read(b)


def test_experiment_config_without_work_is_a_data_error(tmp_path, capsys):
    cfg = _write_json(tmp_path / "exp.json", {"replicates": 3})
    rc = main(["experiment", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, named",
    [
        ({"replicate": 3}, "'replicate'"),
        ({"rows": [{"transmission": 0.4, "nosie": 0.1}]}, "'nosie'"),
    ],
)
def test_experiment_refuses_unknown_keys(tmp_path, capsys, edit, named):
    cfg = _write_json(tmp_path / "exp.json", {**EXPERIMENT_CFG, **edit})
    out_dir = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "data error: unknown" in err and named in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        ({"rows": [0.4]}, "'rows'"),
        ({"rows": {"transmission": 0.4, "noise": 0.1}}, "'rows'"),
        ({"cases": "ab"}, "'cases'"),
        ({"rows": [{"transmission": 0.4}]}, "'noise'"),
    ],
)
def test_experiment_refuses_malformed_rows_and_cases(tmp_path, capsys, edit, named):
    cfg = _write_json(tmp_path / "exp.json", {**EXPERIMENT_CFG, **edit})
    out_dir = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "data error:" in err and named in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        ({"replicates": [1]}, "'replicates'"),
        ({"replicates": True}, "'replicates'"),
        ({"n_paths": 2.7}, "'n_paths'"),
        ({"stride": "4"}, "'stride'"),
        ({"master_seed": 1.5}, "'master_seed'"),
        ({"T": "5"}, "'T'"),
        ({"delta": None}, "'delta'"),
        ({"t0": [0.0]}, "'t0'"),
        ({"rows": [{"transmission": True, "noise": 0.1}]}, "'transmission'"),
        ({"rows": [{"transmission": 0.4, "noise": "0.1"}]}, "'noise'"),
        ({"rows": [{"transmission": 0, "noise": 0.1}]}, "'transmission'"),
        ({"rows": [{"transmission": 0.4, "noise": 0}]}, "'noise'"),
        ({"rows": [{"transmission": 0.4, "noise": -0.1}]}, "'noise'"),
    ],
)
def test_experiment_refuses_malformed_scalar_values(tmp_path, capsys, edit, named):
    cfg = _write_json(tmp_path / "exp.json", {**EXPERIMENT_CFG, **edit})
    out_dir = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "data error:" in err and named in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        ({"rows": [{"transmission": 10**400, "noise": 0.1}]}, "'transmission'"),
        ({"T": 10**400}, "'T'"),
    ],
    ids=["row-rate", "grid-end"],
)
def test_experiment_refuses_integers_beyond_the_float_range(tmp_path, capsys, edit, named):
    cfg = _write_json(tmp_path / "exp.json", {**EXPERIMENT_CFG, **edit})
    out_dir = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"data error: config key {named} must be a finite number" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("kind, least", [("rows", KDE_MIN_VALUES), ("cases", BAND_MIN_REPLICATES)])
def test_experiment_refuses_too_few_replicates_before_any_run(tmp_path, capsys, kind, least):
    # rows end in kernel densities and cases in pointwise bands; too few
    # replicates must be refused before the runs, not by those at the end
    other = "cases" if kind == "rows" else "rows"
    payload = {key: value for key, value in EXPERIMENT_CFG.items() if key != other}
    cfg = _write_json(tmp_path / "exp.json", {**payload, "replicates": least - 1})
    out_dir = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"data error: config key 'replicates' must be at least {least} for {kind}" in err
    assert not out_dir.exists()
    _experiment_configs({**payload, "replicates": least}, None)  # the minimum itself is accepted


def test_experiment_prints_clamp_and_saturation_totals(tmp_path, capsys):
    # a fast-growing Euler-Maruyama row hits the clamp and saturates by
    # T = 5; exact case a draws in the Gaussian coordinate, with no clamp
    payload = {**EXPERIMENT_CFG, "rows": [{"transmission": 6.0, "noise": 0.1}], "replicates": 10}
    cfg = _write_json(tmp_path / "exp.json", payload)
    assert main(["experiment", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
    done = [line for line in capsys.readouterr().out.splitlines() if "replicates done" in line]
    assert done == [
        "table1_lam6_s20.1: 10 replicates done (EM clamps: 2829, paths above 0.99K at the end: 1)",
        "case_a: 10 replicates done (EM clamps: 0, paths above 0.99K at the end: 0)",
    ]
    row_configs, case_configs, _ = _experiment_configs(payload, None)
    row, case = (run_experiment(c).diagnostics for c in row_configs + case_configs)
    assert row["clamp_count_total"] == 2829 and row["saturation_fraction_mean"] == 1.0
    assert case["clamp_count_total"] == 0
    # no run can clip: exact replicates stay in Y and EM replicates lie in the clamp band
    assert "clip_count_total" not in row and "clip_count_total" not in case


def test_a_config_that_names_no_setting_builds_the_standard_run():
    # the CLI keeps no defaults of its own: what a config leaves out, the
    # master seed included, comes from the helpers' standard run
    bare = {"rows": [{"transmission": 0.4, "noise": 0.1}], "cases": ["a"], "replicates": 10}
    built = _experiment_configs(bare, None)
    seeded = _experiment_configs({**bare, "master_seed": SEED}, None)
    helpers = ([table1_config(0.4, 0.1, replicates=10)], [case_config("a", replicates=10)], SEED)
    for other in (seeded, helpers):
        assert [asdict(c) for c in built[0] + built[1]] == [asdict(c) for c in other[0] + other[1]]
        assert built[2] == other[2] == SEED
    assert _experiment_configs(bare, 3)[2] == 3
    # without 'replicates' the standard 100 meets both minimums
    row_configs, case_configs, _ = _experiment_configs({"rows": bare["rows"], "cases": ["c"]}, None)
    assert [c.replicates for c in row_configs + case_configs] == [100, 100]


def test_shipped_configs_build_the_reference_runs():
    shared = dict(n_paths=50, replicates=100, master_seed=SEED, stride=10)

    def rows(pairs):
        return [
            table1_config(lam, s2, simulator="em", em_drift_correction="constant", **shared)
            for lam, s2 in pairs
        ]

    desk = [(0.4, 0.05), (0.4, 0.1)]
    grid = [(lam, s2) for s2 in (0.05, 0.1) for lam in (0.4, 0.6, 0.8, 1.0, 1.2)]
    expected = {
        "table1.json": (rows(desk), []),
        "table1_full.json": (rows(grid), []),
        "cases.json": ([], [case_config(name, **shared) for name in "abc"]),
    }
    for name, (row_configs, case_configs) in expected.items():
        with open(os.path.join(CONFIG_DIR, name)) as handle:
            got_rows, got_cases, seed = _experiment_configs(json.load(handle), None)
        # rate functions compare by identity, so compare field values
        assert [asdict(c) for c in got_rows] == [asdict(c) for c in row_configs], name
        assert [asdict(c) for c in got_cases] == [asdict(c) for c in case_configs], name
        assert seed == SEED
    assert sorted(os.listdir(CONFIG_DIR)) == sorted(expected)


# --------------------------------------------------------------------- analyze


def test_analyze_raw_series(tmp_path, capsys):
    cf, pf = _raw_series_files(tmp_path)
    out = str(tmp_path / "est.csv")
    rc = main(["analyze", "--in", cf, "--pop", pf, "--K", "0.1",
               "--out", out, "--suggest-K"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "# suggested-K=" in stdout
    assert os.path.exists(out)
    sidecar = json.loads(Path(out + ".meta.json").read_text())
    assert sidecar["capacity"] == 0.1
    assert sidecar["mle"] is not None


def test_analyze_reports_clipped_cells(tmp_path, capsys):
    # the last cumulative value of location a lies within CLIP_EPS*K of K;
    # ingest leaves it as it is and the transform clips and counts it
    table = RawSeriesTable(
        times=np.arange(30.0),
        locations=("a", "b"),
        counts=np.array([np.r_[np.full(29, 3.0), 313.0 - 1e-7], np.full(30, 2.0)]),
        populations=np.array([4000.0, 6000.0]),
    )
    cf, pf = str(tmp_path / "counts.csv"), str(tmp_path / "pops.csv")
    save_raw_series(table, cf, pf)
    out = str(tmp_path / "est.csv")
    assert main(["analyze", "--in", cf, "--pop", pf, "--K", "0.1", "--out", out]) == 0
    assert "(clipped cells: 1)" in capsys.readouterr().out
    diagnostics = json.loads(Path(out + ".meta.json").read_text())["diagnostics"]
    assert diagnostics["clip_count"] == 1
    assert not {"ingest_clip_count", "transform_clip_count"} & set(diagnostics)


def test_analyze_with_window(tmp_path):
    cf, pf = _raw_series_files(tmp_path)
    out = str(tmp_path / "est.csv")
    # location a has no cases at t = 5
    rc = main(["analyze", "--in", cf, "--pop", pf, "--K", "0.1",
               "--out", out, "--window", "6", "25"])
    assert rc == 0
    sidecar = json.loads(Path(out + ".meta.json").read_text())
    assert sidecar["n_times"] == 20


def test_analyze_refuses_a_window_of_three_observations(tmp_path, capsys):
    cf, pf = str(tmp_path / "counts.csv"), str(tmp_path / "pops.csv")
    save_raw_series(measles_like_table(), cf, pf)
    out = tmp_path / "est.csv"
    rc = main(["analyze", "--in", cf, "--pop", pf, "--K", "0.25", "--window", "-5", "2", "--out", str(out)])
    assert rc == 1
    assert "at least four observations are needed" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_refuses_zero_first_counts(tmp_path, capsys):
    rng = np.random.default_rng(3)
    counts = np.array([rng.poisson(3.0, 60) for _ in range(5)], dtype=float)
    counts[1, 0] = counts[3, 0] = 0.0
    table = RawSeriesTable(np.arange(60.0), tuple(f"loc{i}" for i in range(5)), counts, np.full(5, 1000.0))
    cf, pf = str(tmp_path / "counts.csv"), str(tmp_path / "pops.csv")
    save_raw_series(table, cf, pf)
    out = tmp_path / "est.csv"
    assert main(["analyze", "--in", cf, "--pop", pf, "--K", "0.5", "--out", str(out)]) == 1
    assert "first count is 0 at location(s) 'loc1', 'loc3'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("time_unit", ["index", "calendar"])
def test_analyze_refuses_a_gap_in_the_times_naming_it(tmp_path, capsys, time_unit):
    # index mode numbers the columns 0, 1, 2, ..., so a gap would pass as
    # one step; both units check the spacing first
    table = measles_like_table()
    keep = (table.times < 100.0) | (table.times > 109.0)
    gapped = RawSeriesTable(table.times[keep], table.locations, table.counts[:, keep], table.populations)
    cf, pf = str(tmp_path / "counts.csv"), str(tmp_path / "pops.csv")
    save_raw_series(gapped, cf, pf)
    out = tmp_path / "est.csv"
    args = ["analyze", "--in", cf, "--pop", pf, "--K", "0.25", "--time-unit", time_unit, "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "data error: times are not uniformly spaced: first uneven step 99.0 -> 110.0" in err
    assert not out.exists()


def test_analyze_capacity_too_small_is_a_data_error(tmp_path, capsys):
    cf, pf = _raw_series_files(tmp_path)
    rc = main(["analyze", "--in", cf, "--pop", pf, "--K", "1e-4",
               "--out", str(tmp_path / "est.csv")])
    assert rc == 1
    assert "increase capacity" in capsys.readouterr().err


def test_out_dir_env_redirects_relative_outputs(tmp_path, monkeypatch):
    cfg = _write_json(tmp_path / "rates.json", RATES_JSON)
    box = tmp_path / "redirect"
    box.mkdir()
    monkeypatch.setenv("SIDIFF_OUT_DIR", str(box))
    monkeypatch.chdir(tmp_path)
    rc = main(["simulate", "--config", cfg, "--x0", "20", "--K", "200",
               "--T", "1", "--delta", "0.1", "--paths", "3", "--seed", "1",
               "--out", "rel.csv"])
    assert rc == 0
    assert (box / "rel.csv").exists()
    assert not (tmp_path / "rel.csv").exists()
