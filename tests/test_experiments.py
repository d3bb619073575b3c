import math

import numpy as np
import pytest

import sidiff.experiments as experiments
from sidiff import (
    ExperimentConfig,
    RatePair,
    TimeGrid,
    boxplot_stats,
    case_config,
    case_rates,
    constant,
    estimate_pipeline,
    homogeneous_error_rows,
    kde,
    mre,
    mre_curves,
    pointwise_band,
    run_experiment,
    simulate_em,
    simulate_exact,
    sinusoid,
    standardize,
    table1_config,
)

K = 200.0
HOMOGENEOUS = RatePair(constant(0.4), constant(0.1), K)


# -------------------------------------------------------------- error metrics


def test_mre_scalar():
    assert mre([0.5, 0.3], 0.4) == pytest.approx(0.25)
    assert mre([0.4, 0.4], 0.4) == 0.0
    with pytest.raises(ValueError):
        mre([0.1], 0.0)


def test_mre_curves_window_and_truth_floor():
    times = np.linspace(0.0, 10.0, 101)
    truth = np.sin(times)  # crosses zero inside the window
    curves = np.tile(truth * 1.1, (3, 1))
    out = mre_curves(curves, times, truth, (1.0, 9.0), min_truth=0.05)
    # 10% relative error everywhere the truth is large enough
    assert out == pytest.approx(0.1, rel=1e-10)
    with pytest.raises(ValueError):
        mre_curves(curves, times, truth, (1.0, 9.0), min_truth=10.0)


def test_pointwise_band_hand_computed():
    curves = np.array([[1.0, 2.0], [3.0, 4.0]])
    mean, sd, lo, hi = pointwise_band(curves)
    assert np.allclose(mean, [2.0, 3.0])
    assert np.allclose(sd, [1.0, 1.0])  # population form
    assert np.allclose(lo, [1.0, 2.0])
    assert np.allclose(hi, [3.0, 4.0])
    _, sd_unbiased, _, _ = pointwise_band(curves, unbiased=True)
    assert np.allclose(sd_unbiased, [math.sqrt(2.0), math.sqrt(2.0)])
    with pytest.raises(ValueError):
        pointwise_band(np.array([[1.0, 2.0]]))


def test_boxplot_stats_plain_and_with_outlier():
    s = boxplot_stats([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["min"], s["q1"], s["median"], s["q3"], s["max"]) == (1, 2, 3, 4, 5)
    assert s["outliers"] == []

    s = boxplot_stats([1.0, 2.0, 3.0, 4.0, 100.0])
    assert s["q1"] == 2.0 and s["median"] == 3.0 and s["q3"] == 4.0
    assert s["outliers"] == [100.0]
    assert s["max"] == 4.0  # whisker stops at the last value inside the fence

    s = boxplot_stats([7.0] * 6)
    assert s["min"] == s["max"] == 7.0
    assert s["outliers"] == []

    with pytest.raises(ValueError):
        boxplot_stats([1.0, 2.0, 3.0, 4.0])


def test_standardize():
    z = standardize([1.0, 2.0, 3.0, 4.0])
    assert z.mean() == pytest.approx(0.0, abs=1e-15)
    assert z.std(ddof=1) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        standardize([5.0, 5.0, 5.0])
    with pytest.raises(ValueError):
        standardize([1.0])


def test_kde_recovers_a_standard_normal():
    vals = np.random.default_rng(31415).standard_normal(10_000)
    grid, dens, bw = kde(vals)
    phi = np.exp(-0.5 * grid**2) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(dens - phi)) < 0.05
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)
    assert bw > 0.0


def test_kde_validation():
    with pytest.raises(ValueError):
        kde(np.ones(5))
    with pytest.raises(ValueError):
        kde(np.ones(20))  # zero spread


# ------------------------------------------------------------- configuration


def test_config_validation():
    grid = TimeGrid(0.0, 0.1, 51)
    with pytest.raises(ValueError, match="MLE"):
        ExperimentConfig(label="x", rates=case_rates("a"), x0=20.0, grid=grid,
                         methods=("GMM", "MLE"))
    with pytest.raises(ValueError, match="methods"):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=grid, methods=())
    with pytest.raises(ValueError, match="unknown methods"):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=grid,
                         methods=("bayes",))
    with pytest.raises(ValueError, match="simulator"):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=grid,
                         simulator="milstein")
    with pytest.raises(ValueError, match="n_paths"):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=grid, n_paths=1)
    with pytest.raises(ValueError, match="scalar_window"):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=grid,
                         scalar_window=(3.0, 99.0))
    with pytest.raises(ValueError, match="x0"):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=-1.0, grid=grid)


def test_resolved_windows():
    cfg = ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0,
                           grid=TimeGrid(0.0, 0.1, 501))
    assert cfg.resolved_scalar_window() == (1.0, 49.0)
    assert cfg.resolved_mre_window() == (2.0, 48.0)
    pinned = ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0,
                              grid=TimeGrid(0.0, 0.1, 501), scalar_window=(5.0, 45.0))
    assert pinned.resolved_scalar_window() == (5.0, 45.0)


def test_case_rates_shapes():
    a = case_rates("a")
    assert a.transmission.kind == "sinusoid"
    assert a.noise.kind == "constant"
    b = case_rates("b")
    assert b.noise.kind == "exp_saturating"
    c = case_rates("c")
    assert c.transmission.kind == "constant"
    assert c.noise.kind == "sinusoid"
    with pytest.raises(ValueError):
        case_rates("d")


def test_standard_configs():
    cfg = case_config("a", replicates=3, n_paths=4)
    assert cfg.methods == ("GMM",)
    assert cfg.stride == 10
    assert cfg.grid.n == 5001
    t1 = table1_config(0.4, 0.1, replicates=3, n_paths=4)
    assert t1.simulator == "em"
    assert t1.em_drift_correction == "constant"
    assert t1.methods == ("GMM", "MLE")


# ---------------------------------------------------------------- experiment


def test_single_replicate_matches_manual_composition():
    cfg = ExperimentConfig(
        label="one", rates=HOMOGENEOUS, x0=20.0, grid=TimeGrid(0.0, 0.1, 51),
        n_paths=8, replicates=1, master_seed=31, stride=2)
    report = run_experiment(cfg)
    ps = simulate_exact(cfg.rates, 20.0, cfg.grid, 8, 31, replicate=0)
    est = estimate_pipeline(ps, stride=2, with_mle=False)
    assert np.array_equal(report.lambda_curves[0], est.lambda_hat(cfg.grid.times))
    assert np.array_equal(report.sigma2_curves[0], est.sigma2_hat_raw(cfg.grid.times))
    a, b = cfg.resolved_scalar_window()
    assert report.scalar_lambda[0] == est.avg_lambda_hat(a, b)


def test_parallel_schedule_does_not_change_the_report():
    cfg = ExperimentConfig(
        label="det", rates=case_rates("a"), x0=20.0, grid=TimeGrid(0.0, 0.05, 101),
        n_paths=6, replicates=4, master_seed=99, stride=4)
    serial = run_experiment(cfg, max_workers=1)
    parallel = run_experiment(cfg, max_workers=2)
    assert np.array_equal(serial.lambda_curves, parallel.lambda_curves)
    assert np.array_equal(serial.sigma2_curves, parallel.sigma2_curves)
    assert np.array_equal(serial.scalar_lambda, parallel.scalar_lambda)
    assert np.array_equal(serial.scalar_sigma2, parallel.scalar_sigma2)


def test_band_covers_constant_truth():
    cfg = ExperimentConfig(
        label="cov", rates=RatePair(constant(0.3), constant(0.05), K), x0=20.0,
        grid=TimeGrid(0.0, 0.05, 101), n_paths=10, replicates=30,
        master_seed=4242, stride=4)
    report = run_experiment(cfg)
    mean, sd, _, _ = report.band("lambda")
    inside = (report.times >= 1.0) & (report.times <= 4.0)
    covered = (0.3 >= (mean - 2 * sd)[inside]) & (0.3 <= (mean + 2 * sd)[inside])
    assert covered.mean() >= 0.9


def test_mle_error_shrinks_with_more_paths():
    errs = []
    for d in (10, 50, 200):
        cfg = ExperimentConfig(
            label=f"d{d}", rates=HOMOGENEOUS, x0=20.0, grid=TimeGrid(0.0, 0.01, 501),
            n_paths=d, replicates=10, master_seed=5151, stride=5,
            methods=("GMM", "MLE"))
        report = run_experiment(cfg)
        errs.append(mre(report.mle_lambda, 0.4))
    assert errs[0] > errs[1] > errs[2]


def test_error_rows_structure():
    cfg = ExperimentConfig(
        label="row", rates=HOMOGENEOUS, x0=20.0, grid=TimeGrid(0.0, 0.05, 101),
        n_paths=6, replicates=4, master_seed=77, stride=4, methods=("GMM", "MLE"))
    rows = homogeneous_error_rows(run_experiment(cfg))
    assert [r["method"] for r in rows] == ["MLE", "GMM"]
    for r in rows:
        assert r["lambda_true"] == 0.4
        assert r["sigma2_true"] == 0.1
        assert r["mre_lambda"] >= 0.0
        assert r["mre_sigma2"] >= 0.0

    varying = ExperimentConfig(
        label="v", rates=case_rates("a"), x0=20.0, grid=TimeGrid(0.0, 0.05, 101),
        n_paths=6, replicates=2, master_seed=1, stride=4)
    with pytest.raises(ValueError):
        homogeneous_error_rows(run_experiment(varying))


def test_report_diagnostics_aggregate():
    cfg = ExperimentConfig(
        label="diag", rates=HOMOGENEOUS, x0=20.0, grid=TimeGrid(0.0, 0.05, 101),
        n_paths=6, replicates=3, master_seed=12, stride=4)
    report = run_experiment(cfg)
    d = report.diagnostics
    assert d["replicates"] == 3
    assert d["clip_count_total"] >= 0
    assert 0.0 <= d["saturation_fraction_mean"] <= 1.0
    assert report.elapsed_seconds > 0.0


def test_replicate_failure_is_attributed():
    # zero-noise rates reach the simulator via the worker and fail there
    cfg = ExperimentConfig(
        label="bad", rates=RatePair(constant(0.4), constant(0.0), K), x0=20.0,
        grid=TimeGrid(0.0, 0.05, 101), n_paths=4, replicates=2, master_seed=3)
    with pytest.raises(RuntimeError, match="replicate 0"):
        run_experiment(cfg)


def _em_config(**changes):
    fields = dict(
        label="em", rates=RatePair(sinusoid(0.4, 0.5, 1.0), constant(3.0), K), x0=60.0,
        grid=TimeGrid(0.0, 0.05, 101), n_paths=6, replicates=5, master_seed=8, stride=4,
        simulator="em", em_refine=2)
    fields.update(changes)
    return ExperimentConfig(**fields)


@pytest.fixture
def two_replicate_chunks(monkeypatch):
    # the standard 6 MiB chunk would hold every replicate of these small runs
    monkeypatch.setattr(experiments, "EM_CHUNK_BYTES", 2 * 8 * 6 * 101)


@pytest.mark.parametrize("drift_correction", ["state", "constant"])
def test_em_chunks_match_per_replicate_composition(two_replicate_chunks, drift_correction):
    cfg = _em_config(
        rates=RatePair(constant(0.4), constant(3.0), K), methods=("GMM", "MLE"),
        em_drift_correction=drift_correction)
    assert [list(c) for c in experiments._chunks(cfg)] == [[0, 1], [2, 3], [4]]
    report = run_experiment(cfg)
    a, b = cfg.resolved_scalar_window()
    clamps = 0
    for r in range(cfg.replicates):
        ps = simulate_em(cfg.rates, cfg.x0, cfg.grid, cfg.n_paths, cfg.master_seed, replicate=r,
                         refine=2, drift_correction=drift_correction)
        est = estimate_pipeline(ps, stride=4)
        clamps += ps.meta["clamp_count"]
        assert np.array_equal(report.lambda_curves[r], est.lambda_hat(cfg.grid.times))
        assert np.array_equal(report.sigma2_curves[r], est.sigma2_hat_raw(cfg.grid.times))
        assert report.scalar_lambda[r] == est.avg_lambda_hat(a, b)
        assert report.scalar_sigma2[r] == est.avg_sigma2_hat(a, b)
        assert (report.mle_lambda[r], report.mle_sigma2[r]) == est.mle
    assert clamps > 0
    assert report.diagnostics["clamp_count_total"] == clamps


def test_em_report_does_not_depend_on_the_schedule(two_replicate_chunks):
    cfg = _em_config()
    serial = run_experiment(cfg)
    pooled = run_experiment(cfg, max_workers=2)
    for name in ("lambda_curves", "sigma2_curves", "scalar_lambda", "scalar_sigma2"):
        assert np.array_equal(getattr(serial, name), getattr(pooled, name))
    assert serial.diagnostics == pooled.diagnostics


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workers", [1, 2])
def test_em_failures_name_the_first_failing_replicate(two_replicate_chunks, workers):
    zero_noise = _em_config(rates=RatePair(constant(0.4), constant(0.0), K))
    with pytest.raises(RuntimeError, match="replicate 0 failed: rate kind"):
        run_experiment(zero_noise, max_workers=workers)
    # x (K - x) would overflow at this capacity
    huge = _em_config(rates=RatePair(constant(0.4), constant(0.1), 1e300), x0=5e299)
    with pytest.raises(RuntimeError, match=r"replicate 0 failed: capacity 1e\+300 is above"):
        run_experiment(huge, max_workers=workers)
    # noise this large overflows both the drift and the shock, and the
    # step turns to inf - inf
    wild = _em_config(
        rates=RatePair(constant(0.4), constant(1e308), 1e154), x0=2.5e153, grid=TimeGrid(0.0, 100.0, 101)
    )
    with pytest.raises(RuntimeError, match=r"replicate 0 failed: Euler-Maruyama path \d+ went NaN"):
        run_experiment(wild, max_workers=workers)


def test_em_estimate_failure_in_a_later_chunk_is_attributed(two_replicate_chunks, monkeypatch):
    def failing_on_replicate_3(paths, **kwargs):
        if paths.seed["replicate"] == 3:
            raise ValueError("boom")
        return estimate_pipeline(paths, **kwargs)

    monkeypatch.setattr(experiments, "estimate_pipeline", failing_on_replicate_3)
    with pytest.raises(RuntimeError, match="replicate 3 failed: boom"):
        run_experiment(_em_config())


def test_report_records_stage_timings():
    report = run_experiment(_em_config())
    assert set(report.timings) == {"simulate", "estimate"}
    assert all(v > 0.0 for v in report.timings.values())
    assert sum(report.timings.values()) <= report.elapsed_seconds
    pooled = run_experiment(_em_config(), max_workers=2)
    assert set(pooled.timings) == {"simulate", "estimate"}
    assert all(v > 0.0 for v in pooled.timings.values())
