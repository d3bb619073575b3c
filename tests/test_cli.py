import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from sidiff import RawSeriesTable, load_paths
from sidiff.cli import _experiment_configs, main
from sidiff.dataio import save_raw_series
from sidiff.experiments import case_config, table1_config

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
        counts={
            "a": rng.poisson(3.0, 30).astype(float),
            "b": rng.poisson(2.0, 30).astype(float),
        },
        populations={"a": 4000.0, "b": 6000.0},
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
    sidecar = json.loads(open(est_csv + ".meta.json").read())
    lam_hat, s2_hat = sidecar["mle"]
    # 30 paths over 5 time units: sd of the rate fit is about 0.026
    assert abs(lam_hat - 0.4) < 0.1
    assert abs(s2_hat - 0.1) < 0.02
    header = open(est_csv).read().splitlines()[1]
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
    sidecar = json.loads(open(out + ".meta.json").read())
    assert sidecar["meta"]["refine"] == 5


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
    table1 = open(os.path.join(out_dir, "table1.csv")).read().splitlines()
    assert table1[1] == "case,method,lambda_true,sigma2_true,mre_lambda,mre_sigma2"
    assert len(table1) == 4  # MLE and GMM rows for the single case
    bands = open(os.path.join(out_dir, "bands_case_a.csv")).read().splitlines()
    assert len(bands) == 2 + 101


def test_experiment_reruns_and_parallel_runs_are_byte_identical(tmp_path):
    cfg = _write_json(tmp_path / "exp.json", EXPERIMENT_CFG)
    outs = []
    for name, workers in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        out_dir = str(tmp_path / name)
        assert main(["experiment", "--config", cfg, "--out-dir", out_dir,
                     "--workers", workers]) == 0
        outs.append({
            f: open(os.path.join(out_dir, f), "rb").read()
            for f in sorted(os.listdir(out_dir))
        })
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_experiment_seed_override_changes_results(tmp_path):
    cfg = _write_json(tmp_path / "exp.json", EXPERIMENT_CFG)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["experiment", "--config", cfg, "--out-dir", a]) == 0
    assert main(["experiment", "--config", cfg, "--out-dir", b, "--seed", "999"]) == 0
    read = lambda d: open(os.path.join(d, "table1.csv"), "rb").read()
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
    sidecar = json.loads(open(out + ".meta.json").read())
    assert sidecar["capacity"] == 0.1
    assert sidecar["mle"] is not None


def test_analyze_reports_ingest_and_transform_clips(tmp_path, capsys):
    table = RawSeriesTable(
        times=np.arange(30.0),
        counts={"a": np.r_[1e-7, np.full(29, 3.0)], "b": np.full(30, 2.0)},
        populations={"a": 4000.0, "b": 6000.0},
    )
    cf, pf = str(tmp_path / "counts.csv"), str(tmp_path / "pops.csv")
    save_raw_series(table, cf, pf)
    out = str(tmp_path / "est.csv")
    assert main(["analyze", "--in", cf, "--pop", pf, "--K", "0.1", "--out", out]) == 0
    assert "clipped cells: 1 on ingest, 0 in the transform" in capsys.readouterr().out
    diagnostics = json.loads(open(out + ".meta.json").read())["diagnostics"]
    assert diagnostics["clip_count"] == diagnostics["ingest_clip_count"] == 1


def test_analyze_with_window(tmp_path):
    cf, pf = _raw_series_files(tmp_path)
    out = str(tmp_path / "est.csv")
    # location a has no cases at t = 5
    rc = main(["analyze", "--in", cf, "--pop", pf, "--K", "0.1",
               "--out", out, "--window", "6", "25"])
    assert rc == 0
    sidecar = json.loads(open(out + ".meta.json").read())
    assert sidecar["n_times"] == 20


def test_analyze_refuses_zero_first_counts(tmp_path, capsys):
    rng = np.random.default_rng(3)
    counts = {f"loc{i}": rng.poisson(3.0, 60).astype(float) for i in range(5)}
    counts["loc1"][0] = counts["loc3"][0] = 0.0
    table = RawSeriesTable(np.arange(60.0), counts, {name: 1000.0 for name in counts})
    cf, pf = str(tmp_path / "counts.csv"), str(tmp_path / "pops.csv")
    save_raw_series(table, cf, pf)
    out = tmp_path / "est.csv"
    assert main(["analyze", "--in", cf, "--pop", pf, "--K", "0.5", "--out", str(out)]) == 1
    assert "first count is 0 at location(s) 'loc1', 'loc3'" in capsys.readouterr().err
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
