import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import sidiff.experiments as experiments
import sidiff.simulate as simulate
from sidiff import (
    ExperimentConfig,
    RatePair,
    TimeGrid,
    boxplot_stats,
    case_config,
    case_rates,
    constant,
    estimate_pipeline,
    evaluate,
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
    x_to_y,
    y_to_x,
)
from sidiff.experiments import STANDARD_GRID, STANDARD_X0
from sidiff.model import CLIP_EPS
from sidiff.simulate import _exact_replicates

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
    with pytest.raises(ValueError, match="simulator"):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=grid,
                         simulator="milstein")
    with pytest.raises(ValueError, match="n_paths"):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=grid, n_paths=1)
    with pytest.raises(ValueError, match="x0"):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=-1.0, grid=grid)


@pytest.mark.parametrize(
    "name, value",
    [("master_seed", -3), ("master_seed", 5.0), ("stride", 2.5), ("n_paths", 8.0), ("replicates", True)],
)
def test_config_refuses_fractional_counts_and_negative_seeds(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=TimeGrid(0.0, 0.1, 51), **{name: value})
    ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=TimeGrid(0.0, 0.1, 51), **{name: np.int64(3)})


def test_resolved_windows():
    cfg = ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0,
                           grid=TimeGrid(0.0, 0.1, 501))
    assert cfg.resolved_scalar_window() == (1.0, 49.0)


def test_methods_follow_the_rate_kinds():
    grid = TimeGrid(0.0, 0.1, 51)
    for name in "abc":  # time-varying transmission, noise or both
        assert ExperimentConfig(label="x", rates=case_rates(name), x0=20.0, grid=grid).methods == ("GMM",)
    assert ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=grid).methods == ("GMM", "MLE")
    with pytest.raises(TypeError):
        ExperimentConfig(label="x", rates=HOMOGENEOUS, x0=20.0, grid=grid, methods=("GMM",))


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


def test_a_config_of_rates_x0_and_grid_alone_is_the_standard_run():
    bare = ExperimentConfig(label="case_a", rates=case_rates("a"), x0=STANDARD_X0, grid=STANDARD_GRID)
    assert asdict(bare) == asdict(case_config("a"))


# each keyword the helpers take, set away from the standard run
HELPER_KEYWORDS = [("n_paths", 7), ("replicates", 3), ("master_seed", 11), ("stride", 4),
                   ("grid", TimeGrid(0.0, 0.05, 101)), ("grid", None)]
SCHEME_KEYWORDS = [("simulator", "exact"), ("em_drift_correction", "state")]


def _spelled_out(label, rates, **changes):
    """The standard run written out field by field, as the helpers once did."""
    fields = dict(label=label, rates=rates, x0=20.0, grid=TimeGrid(0.0, 0.01, 5001), n_paths=50,
                  replicates=100, master_seed=20260819, stride=10)
    fields.update({key: value for key, value in changes.items() if value is not None})
    return asdict(ExperimentConfig(**fields))


@pytest.mark.parametrize("keyword, value", HELPER_KEYWORDS)
def test_case_config_builds_the_standard_run_with_each_keyword(keyword, value):
    built = case_config("B", **{keyword: value})
    assert asdict(built) == _spelled_out("case_b", case_rates("b"), **{keyword: value})


@pytest.mark.parametrize("keyword, value", HELPER_KEYWORDS + SCHEME_KEYWORDS)
def test_table1_config_builds_the_standard_run_with_each_keyword(keyword, value):
    built = table1_config(0.4, 0.05, **{keyword: value})
    scheme = {"simulator": "em", "em_drift_correction": "constant", keyword: value}
    assert asdict(built) == _spelled_out("table1_lam0.4_s20.05", RatePair(constant(0.4), constant(0.05), K), **scheme)


@pytest.mark.parametrize(
    "call",
    [lambda: case_config("a", simulator="em"), lambda: case_config("a", x0=5.0), lambda: case_config("a", 5),
     lambda: table1_config(0.4, 0.1, x0=5.0), lambda: table1_config(0.4, 0.1, label="t"),
     lambda: table1_config(0.4, 0.1, "em")],
    ids=["case-simulator", "case-x0", "case-positional", "table1-x0", "table1-label", "table1-positional"],
)
def test_standard_configs_take_no_other_keyword(call):
    with pytest.raises(TypeError):
        call()


# ---------------------------------------------------------------- experiment


def test_single_replicate_matches_manual_composition():
    cfg = ExperimentConfig(
        label="one", rates=HOMOGENEOUS, x0=20.0, grid=TimeGrid(0.0, 0.1, 51),
        n_paths=8, replicates=1, master_seed=31, stride=2)
    report = run_experiment(cfg)
    ps = next(_exact_replicates(cfg.rates, 20.0, cfg.grid, 8, 31, [0]))
    assert ps.space == "Y"
    est = estimate_pipeline(ps, stride=2, with_mle=False)
    assert np.array_equal(report.lambda_curves[0], est.lambda_hat(cfg.grid.times))
    assert np.array_equal(report.sigma2_curves[0], est.sigma2_hat_raw(cfg.grid.times))
    a, b = cfg.resolved_scalar_window()
    assert report.scalar_lambda[0] == est.avg_lambda_hat(a, b)
    assert report.scalar_sigma2[0] == est.avg_sigma2_hat(a, b)


def test_exact_experiment_paths_are_the_transform_of_simulate_exact():
    # the Y rows an exact run estimates agree with the transform of the X
    # paths simulate_exact returns, wherever X is not saturated near K
    cfg = case_config("a", n_paths=10, replicates=3)
    for r, ypaths in enumerate(_exact_replicates(cfg.rates, cfg.x0, cfg.grid, 10, cfg.master_seed, range(3))):
        x = simulate_exact(cfg.rates, cfg.x0, cfg.grid, 10, cfg.master_seed, replicate=r).values
        inside = x < 0.99 * K
        assert inside.sum() > 10_000
        assert np.max(np.abs(ypaths.values[inside] - x_to_y(x[inside], cfg.x0, K))) < 1e-9


@pytest.mark.parametrize("case", ["a", "b"])
def test_exact_cases_are_unbiased_where_x_saturates(case):
    # by t = 40 most paths of cases a and b sit within 1e-9 K of K; the
    # Gaussian coordinate carries no such limit, so the late band stays
    # on the truth
    report = run_experiment(case_config(case, replicates=20))
    rates = report.config.rates
    late = (report.times >= 40.0) & (report.times <= 48.0)
    times = report.times[late]
    lam_bias = np.mean(pointwise_band(report.lambda_curves)[0][late] - evaluate(rates.transmission, times))
    s2_bias = np.mean(pointwise_band(report.sigma2_curves)[0][late] - evaluate(rates.noise, times))
    assert abs(lam_bias) < 0.01
    assert abs(s2_bias) < 0.05


def _assert_totals(report, alone):
    """report.diagnostics, values and Python types, against the folds of
    (estimate, clamp count, final X values) of each replicate run alone."""
    k = report.config.rates.capacity
    expected = {
        "clamp_count_total": sum(clamps for _, clamps, _ in alone),
        "negative_noise_fraction_mean": float(
            np.mean([est.diagnostics["negative_noise_fraction"] for est, _, _ in alone])
        ),
        "low_confidence_replicates": sum(est.diagnostics["low_confidence_boundary"] for est, _, _ in alone),
        "saturation_fraction_mean": float(np.mean([np.mean(x_end > 0.99 * k) for _, _, x_end in alone])),
        "replicates": len(alone),
    }
    assert report.diagnostics == expected
    assert [type(v) for v in report.diagnostics.values()] == [type(v) for v in expected.values()]


def test_chunking_does_not_change_the_report():
    # an exact run draws every replicate from one stream; a fresh
    # stream per replicate gives the same rows and the same totals
    cfg = ExperimentConfig(
        label="det", rates=case_rates("a"), x0=20.0, grid=TimeGrid(0.0, 0.05, 101),
        n_paths=6, replicates=4, master_seed=99, stride=4)
    report = run_experiment(cfg)
    a, b = cfg.resolved_scalar_window()
    alone = []
    for r in range(cfg.replicates):
        ps = next(_exact_replicates(cfg.rates, cfg.x0, cfg.grid, cfg.n_paths, cfg.master_seed, [r]))
        est = estimate_pipeline(ps, stride=4, with_mle=False)
        alone.append((est, 0, y_to_x(ps.values[:, -1], cfg.x0, K)))
        assert np.array_equal(report.lambda_curves[r], est.lambda_hat(cfg.grid.times))
        assert np.array_equal(report.sigma2_curves[r], est.sigma2_hat_raw(cfg.grid.times))
        assert report.scalar_lambda[r] == est.avg_lambda_hat(a, b)
        assert report.scalar_sigma2[r] == est.avg_sigma2_hat(a, b)
    assert report.mle_lambda is None and report.mle_sigma2 is None
    _assert_totals(report, alone)


def test_band_covers_constant_truth():
    cfg = ExperimentConfig(
        label="cov", rates=RatePair(constant(0.3), constant(0.05), K), x0=20.0,
        grid=TimeGrid(0.0, 0.05, 101), n_paths=10, replicates=30,
        master_seed=4242, stride=4)
    report = run_experiment(cfg)
    mean, sd, _, _ = pointwise_band(report.lambda_curves)
    inside = (report.times >= 1.0) & (report.times <= 4.0)
    covered = (0.3 >= (mean - 2 * sd)[inside]) & (0.3 <= (mean + 2 * sd)[inside])
    assert covered.mean() >= 0.9


def test_mle_error_shrinks_with_more_paths():
    errs = []
    for d in (10, 50, 200):
        cfg = ExperimentConfig(
            label=f"d{d}", rates=HOMOGENEOUS, x0=20.0, grid=TimeGrid(0.0, 0.01, 501),
            n_paths=d, replicates=10, master_seed=5151, stride=5)
        report = run_experiment(cfg)
        errs.append(mre(report.mle_lambda, 0.4))
    assert errs[0] > errs[1] > errs[2]


def test_error_rows_structure():
    cfg = ExperimentConfig(
        label="row", rates=HOMOGENEOUS, x0=20.0, grid=TimeGrid(0.0, 0.05, 101),
        n_paths=6, replicates=4, master_seed=77, stride=4)
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
    assert d["clamp_count_total"] == 0  # an exact run has no clamp
    assert 0.0 <= d["saturation_fraction_mean"] <= 1.0
    assert report.elapsed_seconds > 0.0


def test_replicate_failure_is_attributed():
    # zero-noise rates reach the simulator inside the run and fail there
    cfg = ExperimentConfig(
        label="bad", rates=RatePair(constant(0.4), constant(0.0), K), x0=20.0,
        grid=TimeGrid(0.0, 0.05, 101), n_paths=4, replicates=2, master_seed=3, stride=1)
    with pytest.raises(RuntimeError, match="replicate 0"):
        run_experiment(cfg)


def _em_config(**changes):
    fields = dict(
        label="em", rates=RatePair(sinusoid(0.4, 0.5, 1.0), constant(3.0), K), x0=60.0,
        grid=TimeGrid(0.0, 0.05, 101), n_paths=6, replicates=5, master_seed=8, stride=4,
        simulator="em")
    fields.update(changes)
    return ExperimentConfig(**fields)


def test_exact_run_tabulates_increments_once(monkeypatch):
    # one stream for the whole run: the window check and the two
    # increment tables are not redone per group of replicates
    tables = []
    increment_table = simulate.increment_table

    def counting(rate, grid):
        tables.append(rate.kind)
        return increment_table(rate, grid)

    monkeypatch.setattr(simulate, "increment_table", counting)
    report = run_experiment(case_config("b", replicates=20))
    assert tables == ["sinusoid", "exp_saturating"]
    assert report.diagnostics["replicates"] == 20


def test_em_run_checks_the_window_and_tabulates_steps_once(monkeypatch):
    # five replicates from one stream: the window check and the per-step
    # rate tables are made once per run, not once per replicate
    windows, tables = [], []
    validate_window = RatePair.validate_window
    evaluate_rate = simulate.evaluate

    def checking(rates, *window):
        windows.append(window)
        return validate_window(rates, *window)

    def tabulating(rate, t):
        tables.append(rate.kind)
        return evaluate_rate(rate, t)

    monkeypatch.setattr(RatePair, "validate_window", checking)
    monkeypatch.setattr(simulate, "evaluate", tabulating)
    cfg = _em_config()
    report = run_experiment(cfg)
    assert windows == [(cfg.grid.t0, cfg.grid.end, cfg.grid.n)]
    assert tables == ["sinusoid", "constant"]
    assert report.diagnostics["replicates"] == cfg.replicates


def test_exact_run_ignores_the_em_batch_budget():
    # the exact stream's rows are those of each replicate drawn and estimated alone
    exact = _em_config(simulator="exact")
    report = run_experiment(exact)
    for r in range(exact.replicates):
        ps = next(_exact_replicates(exact.rates, exact.x0, exact.grid, exact.n_paths, exact.master_seed, [r]))
        est = estimate_pipeline(ps, stride=4, with_mle=False)
        assert np.array_equal(report.lambda_curves[r], est.lambda_hat(exact.grid.times))
        assert np.array_equal(report.sigma2_curves[r], est.sigma2_hat_raw(exact.grid.times))


@pytest.mark.parametrize(
    "transmission, drift_correction",
    [(0.4, "state"), (0.4, "constant"), (-1.0, "state"), (-1.0, "constant")],
    # a falling transmission, as FALLING in test_simulate, holds paths at the lower clamp
    ids=["state", "constant", "lower_clamp-state", "lower_clamp-constant"],
)
def test_em_batches_match_per_replicate_composition(kernel_states, transmission, drift_correction):
    # the run maps each replicate to Y without the clip, which the replicate
    # run alone goes through: the two agree at the clamp edges
    cfg = _em_config(
        rates=RatePair(constant(transmission), constant(3.0), K), em_drift_correction=drift_correction)
    for _ in kernel_states:
        report = run_experiment(cfg)
        a, b = cfg.resolved_scalar_window()
        alone = []
        edge, at_edge = (CLIP_EPS * K if transmission < 0.0 else (1.0 - CLIP_EPS) * K), 0
        for r in range(cfg.replicates):
            ps = simulate_em(cfg.rates, cfg.x0, cfg.grid, cfg.n_paths, cfg.master_seed, replicate=r,
                             drift_correction=drift_correction)
            at_edge += np.count_nonzero(ps.values == edge)
            est = estimate_pipeline(ps, stride=4)
            alone.append((est, ps.meta["clamp_count"], ps.values[:, -1]))
            assert np.array_equal(report.lambda_curves[r], est.lambda_hat(cfg.grid.times))
            assert np.array_equal(report.sigma2_curves[r], est.sigma2_hat_raw(cfg.grid.times))
            assert report.scalar_lambda[r] == est.avg_lambda_hat(a, b)
            assert report.scalar_sigma2[r] == est.avg_sigma2_hat(a, b)
            assert (report.mle_lambda[r], report.mle_sigma2[r]) == est.mle
        assert report.diagnostics["clamp_count_total"] > 0
        assert at_edge > 0
        _assert_totals(report, alone)


@pytest.mark.parametrize(
    "x0", [math.nextafter(CLIP_EPS * K, 0.0), math.nextafter((1.0 - CLIP_EPS) * K, K)], ids=["below", "above"])
def test_em_run_refuses_an_x0_outside_the_clamp_band(x0):
    # the run maps Euler-Maruyama replicates to Y unclipped, so their x0 must
    # lie in the band; the config refuses it, before any run, as simulate_em does
    with pytest.raises(ValueError, match=r"^x0 must lie in the Euler-Maruyama clamp band"):
        _em_config(x0=x0)
    report = run_experiment(_em_config(x0=x0, simulator="exact", replicates=2))
    assert np.all(np.isfinite(report.lambda_curves))


@pytest.mark.parametrize("capacity", [1e200, 1e300])
def test_em_config_refuses_a_capacity_whose_drift_overflows(capacity):
    # x (K - x) would overflow; the config refuses it before any run, as simulate_em does
    rates = RatePair(constant(0.4), constant(0.1), capacity)
    with pytest.raises(ValueError, match=r'overflows; use simulator="exact"$'):
        _em_config(rates=rates, x0=capacity / 2.0)
    assert _em_config(rates=rates, x0=capacity / 2.0, simulator="exact").rates.capacity == capacity


def test_em_run_holds_one_replicate_at_a_time():
    # a replicate is dropped before the next is integrated, so six
    # replicates peak at one replicate, its noise buffer and its
    # estimate (about 2.5 bundles), never at two replicates
    cfg = _em_config(n_paths=50, grid=TimeGrid(0.0, 0.01, 5001), replicates=6)
    bundle = 8 * cfg.n_paths * cfg.grid.n
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * bundle


def test_em_run_peaks_under_three_and_a_half_bundles():
    # 20 standard-grid replicates: one replicate, its noise buffer, its
    # estimate and the report's curve rows (0.8 bundles) must stay
    # within three and a half 50 x 5001 bundles (3.03 measured)
    cfg = table1_config(0.4, 0.1, replicates=20)
    bundle = 8 * cfg.n_paths * cfg.grid.n
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * bundle


def test_report_curves_are_held_once():
    # two-path replicates make the 100 x 5001 curve arrays most of the
    # run's memory: each replicate writes its rows into them in place, so
    # no second copy of the curves is made while the run stacks its records
    tracemalloc.start()
    try:
        report = run_experiment(case_config("a", n_paths=2, replicates=100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    curves = report.lambda_curves.nbytes + report.sigma2_curves.nbytes
    assert curves == 2 * 8 * 100 * 5001
    assert peak <= 1.25 * curves


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_em_failures_name_the_first_failing_replicate():
    zero_noise = _em_config(rates=RatePair(constant(0.4), constant(0.0), K))
    with pytest.raises(RuntimeError, match="replicate 0 failed: rate kind"):
        run_experiment(zero_noise)
    # noise this large overflows both the drift and the shock, and the
    # step turns to inf - inf
    wild = _em_config(
        rates=RatePair(constant(0.4), constant(1e308), 1e154), x0=2.5e153, grid=TimeGrid(0.0, 100.0, 101)
    )
    with pytest.raises(RuntimeError, match=r"replicate 0 failed: Euler-Maruyama path \d+ went NaN"):
        run_experiment(wild)


def test_em_estimate_failure_in_a_later_chunk_is_attributed(monkeypatch):
    def failing_on_replicate_3(paths, **kwargs):
        if paths.seed["replicate"] == 3:
            raise ValueError("boom")
        return estimate_pipeline(paths, **kwargs)

    monkeypatch.setattr(experiments, "estimate_pipeline", failing_on_replicate_3)
    with pytest.raises(RuntimeError, match="replicate 3 failed: boom"):
        run_experiment(_em_config())


def test_report_records_stage_timings():
    for report in (run_experiment(_em_config()), run_experiment(_em_config(simulator="exact"))):
        assert set(report.timings) == {"simulate", "estimate"}
        assert all(v > 0.0 for v in report.timings.values())
        assert sum(report.timings.values()) <= report.elapsed_seconds
