"""End-to-end acceptance checks at their stated tolerances.

Each test prints one `[criterion N] PASS/FAIL (...)` verdict line and the
module teardown replays the collected lines past pytest's capture plugin,
so the verdicts are visible in plain `pytest -v` output.  The heavy Monte
Carlo fixtures are module scoped and shared between criteria.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

import sidiff as sd
from sidiff.cli import main
from sidiff.experiments import (
    case_config,
    homogeneous_error_rows,
    table1_config,
)
from sidiff.synthetic import measles_like_table

VERDICTS: list[str] = []

# Reference scalar error levels for the two constant-rate benchmark rows;
# the replicated table must land within a factor of two of these.
REFERENCE_LAMBDA_MRE = {
    0.05: {"MLE": 0.113, "GMM": 0.110},
    0.1: {"MLE": 0.225, "GMM": 0.223},
}


def _check(n: int, ok: bool, detail: str) -> None:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _emit_verdicts(request):
    yield
    block = "\n".join(["", "acceptance summary:"] + [f"  {ln}" for ln in VERDICTS])
    cap = request.config.pluginmanager.getplugin("capturemanager")
    if cap is None:
        print(block)
    else:
        with cap.global_and_fixture_disabled():
            print(block)


@pytest.fixture(scope="module")
def table1_runs():
    start = time.perf_counter()
    reports = {s2: sd.run_experiment(table1_config(0.4, s2)) for s2 in (0.05, 0.1)}
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def case_a_report():
    return sd.run_experiment(case_config("a"))


@pytest.fixture(scope="module")
def case_c_report():
    return sd.run_experiment(case_config("c"))


def test_criterion_1_constant_rate_error_table(table1_runs):
    reports, elapsed = table1_runs
    ok = elapsed < 600.0
    parts = [f"runtime {elapsed:.0f}s < 600s"]
    for s2, report in reports.items():
        rows = {row["method"]: row for row in homogeneous_error_rows(report)}
        a = rows["MLE"]["mre_lambda"]
        b = rows["GMM"]["mre_lambda"]
        gap = abs(a - b) / max(a, b)
        ok = ok and gap <= 0.15
        for method in ("MLE", "GMM"):
            ratio = rows[method]["mre_lambda"] / REFERENCE_LAMBDA_MRE[s2][method]
            ok = ok and 0.5 <= ratio <= 2.0
        ok = ok and rows["MLE"]["mre_sigma2"] < rows["GMM"]["mre_sigma2"]
        parts.append(
            f"s2={s2:g}: lam mre MLE {a:.4f} / GMM {b:.4f} (gap {gap:.1%}), "
            f"s2 mre {rows['MLE']['mre_sigma2']:.4f} < {rows['GMM']['mre_sigma2']:.4f}"
        )
    _check(1, ok, "; ".join(parts))


def test_criterion_2_sinusoidal_transmission_recovery(case_a_report):
    report = case_a_report
    times = report.times
    truth = np.array(
        [sd.evaluate(report.config.rates.transmission, float(t)) for t in times]
    )
    mean, _, lower, upper = sd.pointwise_band(report.lambda_curves)
    mask = (times >= 2.0) & (times <= 48.0)
    rmse = float(np.sqrt(np.mean((mean[mask] - truth[mask]) ** 2)))
    covered = (lower[mask] <= truth[mask]) & (truth[mask] <= upper[mask])
    coverage = float(np.mean(covered))
    ok = rmse < 0.15 and coverage >= 0.90
    _check(2, ok, f"rmse {rmse:.4f} < 0.15, band coverage {coverage:.1%} >= 90%")


def test_criterion_3_sinusoidal_noise_recovery(case_c_report):
    report = case_c_report
    times = report.times
    truth = np.array([sd.evaluate(report.config.rates.noise, float(t)) for t in times])
    mask = (times >= 2.0) & (times <= 48.0)
    mean_s2 = sd.pointwise_band(report.sigma2_curves)[0]
    rmse = float(np.sqrt(np.mean((mean_s2[mask] - truth[mask]) ** 2)))
    lam_avg = float(sd.pointwise_band(report.lambda_curves)[0][mask].mean())
    ok = rmse < 0.01 and abs(lam_avg - 0.4) < 0.05
    _check(
        3,
        ok,
        f"s2 rmse {rmse:.5f} < 0.01, lam window average {lam_avg:.4f} within 0.05 of 0.4",
    )


def test_criterion_4_transition_law_identities():
    pair = sd.RatePair(sd.constant(0.4), sd.constant(0.1), 200.0)
    law = sd.TransitionLaw(pair, 20.0, 0.0)

    norm_err = 0.0
    for t in (1.0, 5.0, 10.0):
        med = sd.conditional_median(law, t)
        total, _ = quad(
            lambda x: sd.transition_pdf(law, x, t), 0.0, 200.0, points=[med], limit=300
        )
        norm_err = max(norm_err, abs(total - 1.0))

    med_err = max(
        abs(sd.transition_cdf(law, sd.conditional_median(law, t), t) - 0.5)
        for t in (0.5, 2.0, 10.0)
    )

    growth, spread = law.accumulated(10.0)
    z = np.linspace(-10.0, 10.0, 1_000_001)
    weights = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    x = sd.y_to_x(growth + math.sqrt(spread) * z, 20.0, 200.0)
    mom_err = 0.0
    moments = {}
    for m in (1, 2):
        gh = sd.conditional_moment(law, m, 10.0)
        brute = float(np.trapezoid(x**m * weights, z))
        mom_err = max(mom_err, abs(gh - brute) / abs(brute))
        moments[m] = gh

    paths = sd.simulate_exact(pair, 20.0, sd.TimeGrid(0.0, 10.0, 2), 100_000, 500)
    x_end = paths.values[:, 1]
    z_max = 0.0
    for m in (1, 2):
        sample = x_end**m
        se = float(sample.std(ddof=1)) / math.sqrt(sample.size)
        z_max = max(z_max, abs(float(sample.mean()) - moments[m]) / se)

    ok = norm_err < 1e-8 and med_err < 1e-10 and mom_err < 1e-8 and z_max < 3.0
    _check(
        4,
        ok,
        f"|int pdf - 1| {norm_err:.1e} < 1e-8, cdf(median) err {med_err:.1e} < 1e-10, "
        f"moment rel err {mom_err:.1e} < 1e-8, mc z {z_max:.2f} < 3",
    )


def test_criterion_5_simulator_agreement():
    pair = sd.RatePair(sd.constant(0.4), sd.constant(0.1), 200.0)
    grid = sd.TimeGrid(0.0, 0.01, 101)
    exact = sd.simulate_exact(pair, 20.0, grid, 2000, 101)
    # observation step 0.01 with refine=10 puts the internal step at 1e-3
    em = sd.simulate_em(pair, 20.0, grid, 2000, 202, refine=10)
    _, p_value = ks_2samp(exact.values[:, -1], em.values[:, -1])

    cov_grid = sd.TimeGrid(0.0, 0.5, 11)
    paths = sd.simulate_exact(pair, 20.0, cov_grid, 10_000, 303)
    y = sd.x_to_y(paths.values, 20.0, 200.0)
    d = y.shape[0]
    law = sd.TransitionLaw(pair, 20.0, 0.0)
    z_max = 0.0
    for j, l in [(1, 3), (2, 5), (4, 7), (6, 9), (8, 10)]:
        v_s = law.accumulated(float(cov_grid.times[j]))[1]
        v_t = law.accumulated(float(cov_grid.times[l]))[1]
        cj = y[:, j] - y[:, j].mean()
        cl = y[:, l] - y[:, l].mean()
        c_hat = float(cj @ cl) / (d - 1)
        se = math.sqrt((v_s * v_t + v_s * v_s) / (d - 1))
        z_max = max(z_max, abs(c_hat - v_s) / se)
    ok = p_value > 0.01 and z_max < 3.0
    _check(5, ok, f"ks p {p_value:.3f} > 0.01, lag-cov z max {z_max:.2f} < 3")


def test_criterion_6_degenerate_input_exactness():
    grid = sd.TimeGrid(0.0, 0.5, 11)
    y = np.tile(0.3 * (grid.times - grid.times[0]), (4, 1))
    est = sd.estimate_pipeline(sd.PathSet(grid, y.copy(), space="Y", capacity=200.0))
    ts_lam = np.linspace(grid.times[0], grid.times[-1], 101)
    ts_s2 = np.linspace(grid.times[0], grid.times[-2], 101)
    lam_err = float(np.max(np.abs(est.lambda_hat(ts_lam) - 0.3)))
    # noiseless data: the accumulated-variance slope is identically zero
    s2_err = float(np.max(np.abs(est.sigma2_hat_raw(ts_s2))))

    dyadic_grid = sd.TimeGrid(0.0, 0.25, 9)
    dyadic = np.tile(0.125 * np.arange(9), (3, 1))
    lam_mle, s2_mle = sd.mle_homogeneous(
        sd.PathSet(dyadic_grid, dyadic, space="Y", capacity=200.0)
    )
    exact_mle = lam_mle == 0.5 and s2_mle == 0.0

    ok = lam_err < 1e-8 and s2_err < 1e-10 and exact_mle
    _check(
        6,
        ok,
        f"lam err {lam_err:.1e} < 1e-8, s2 err {s2_err:.1e} < 1e-10, "
        f"zero-residual mle exact: {exact_mle}",
    )


def test_criterion_7_outbreak_fixture_signature():
    table = measles_like_table()
    paths, est = sd.analyze_series(table, sd.AnalysisConfig(capacity=0.25))
    times = paths.grid.times
    lam = est.lambda_hat(times)
    n = times.size
    lam_init = float(lam[: max(2, n // 10)].mean())
    lam_tail = float(lam[n - n // 3 :].mean())
    ratio = lam_init / lam_tail

    ts = times[:-1]  # the raw noise curve lives on the lag-one window
    s2 = est.sigma2_hat_raw(ts)
    m = ts.size
    s2_init = float(s2[: max(2, m // 10)].mean())
    s2_tail = float(s2[m - m // 3 :].mean())
    ok = ratio >= 5.0 and s2_tail < s2_init
    _check(
        7,
        ok,
        f"lam initial/final ratio {ratio:.1f} >= 5, "
        f"raw s2 final {s2_tail:.2e} < initial {s2_init:.2e}",
    )


def test_criterion_8_byte_identical_reruns(tmp_path, monkeypatch):
    rates = {
        "transmission": {"kind": "constant", "params": {"value": 0.4}},
        "noise": {"kind": "constant", "params": {"value": 0.1}},
    }
    rates_cfg = tmp_path / "rates.json"
    rates_cfg.write_text(json.dumps(rates))
    sim_bytes = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main(
            [
                "simulate", "--config", str(rates_cfg), "--x0", "20", "--K", "200",
                "--T", "2", "--delta", "0.01", "--paths", "20", "--seed", "9",
                "--out", str(out),
            ]
        )
        assert code == 0
        sim_bytes.append(out.read_bytes())
    sim_ok = sim_bytes[0] == sim_bytes[1]

    exp_cfg = tmp_path / "experiment.json"
    exp_cfg.write_text(
        json.dumps(
            {
                "rows": [{"transmission": 0.4, "noise": 0.1}],
                "cases": ["a"],
                "replicates": 12,
                "n_paths": 4,
                "stride": 4,
                "T": 5.0,
                "delta": 0.1,
                "master_seed": 11,
            }
        )
    )
    outputs = []
    for sub in ("run1", "run2", "run3"):
        if sub == "run3":
            # Euler-Maruyama noise drawn 7 steps at a time, where the
            # standard 512-step block holds all 50 steps of a path
            monkeypatch.setattr(sd.simulate, "EM_NOISE_BLOCK", 7)
        out_dir = tmp_path / sub
        code = main(["experiment", "--config", str(exp_cfg), "--out-dir", str(out_dir)])
        assert code == 0
        outputs.append(
            {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.suffix == ".csv"}
        )
    names_ok = sorted(outputs[0]) == ["bands_case_a.csv", "boxplot.csv", "kde.csv", "table1.csv"]
    exp_ok = outputs[0] == outputs[1] == outputs[2]
    ok = sim_ok and exp_ok and names_ok
    _check(
        8,
        ok,
        f"simulate rerun byte-identical: {sim_ok}; "
        f"experiment reruns incl. 7-step EM noise blocks byte-identical: {exp_ok}",
    )
