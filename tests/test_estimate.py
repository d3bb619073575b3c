import math

import numpy as np
import pytest

from sidiff import (
    PathSet,
    RatePair,
    RawSeriesTable,
    SplineCurve,
    TimeGrid,
    constant,
    cumulate_normalize,
    estimate_pipeline,
    fit_moment_curves,
    log_likelihood,
    mle_homogeneous,
    sample_lag_cov,
    sample_mean,
    simulate_exact,
    transform_paths,
)

K = 200.0
PAIR = RatePair(constant(0.4), constant(0.1), K)


def _ypaths(values, delta=1.0):
    values = np.asarray(values, dtype=float)
    grid = TimeGrid(0.0, delta, values.shape[1])
    return PathSet(grid, values, "Y", K)


# ------------------------------------------------------------------- transform


def test_transform_reference_is_per_path():
    grid = TimeGrid(0.0, 1.0, 2)
    ps = PathSet(grid, np.array([[20.0, 100.0], [50.0, 100.0]]), "X", K)
    y = transform_paths(ps)
    assert y.space == "Y"
    assert y.values[0, 0] == 0.0
    assert y.values[1, 0] == 0.0
    assert y.values[0, 1] == pytest.approx(math.log(9.0), rel=1e-14)
    # different start, same end: different transformed value
    assert y.values[1, 1] != pytest.approx(y.values[0, 1])


def test_transform_clips_boundary_values_and_counts():
    grid = TimeGrid(0.0, 1.0, 3)
    ps = PathSet(grid, np.array([[20.0, 100.0, K]]), "X", K)
    y = transform_paths(ps)
    assert y.meta["clip_count"] == 1
    assert np.all(np.isfinite(y.values))


def test_ingest_clip_count_survives_the_transform():
    # a tiny first count is clipped on ingest; the transform sees the
    # clipped value, inside its own clip band, and clips nothing more
    rng = np.random.default_rng(5)
    counts = {"a": rng.poisson(3.0, 12).astype(float), "b": rng.poisson(3.0, 12).astype(float)}
    counts["a"][0] = 1e-7
    counts["b"][0] = 4.0
    table = RawSeriesTable(np.arange(12.0), counts, {"a": 1000.0, "b": 1000.0})
    paths = cumulate_normalize(table, 0.25)
    assert paths.meta["clip_count"] == 1
    ypaths = transform_paths(paths)
    assert ypaths.meta["ingest_clip_count"] == 1
    assert ypaths.meta["clip_count"] == 0
    diag = estimate_pipeline(paths).diagnostics
    assert diag["ingest_clip_count"] == 1
    assert diag["transform_clip_count"] == 0
    assert diag["clip_count"] == 1


def test_transform_clip_count_adds_to_the_ingest_count():
    grid = TimeGrid(0.0, 1.0, 4)
    values = np.array([[20.0, 100.0, K, 150.0], [30.0, 60.0, 90.0, 120.0]])
    ps = PathSet(grid, values, "X", K, meta={"clip_count": 2})
    diag = estimate_pipeline(ps, with_mle=False).diagnostics
    assert (diag["ingest_clip_count"], diag["transform_clip_count"], diag["clip_count"]) == (2, 1, 3)


def test_transform_rejects_values_outside_interval():
    grid = TimeGrid(0.0, 1.0, 2)
    ps = PathSet(grid, np.array([[20.0, K + 1.0]]), "X", K)
    with pytest.raises(ValueError):
        transform_paths(ps)
    with pytest.raises(ValueError):
        transform_paths(_ypaths([[0.0, 1.0]]))


# ------------------------------------------------------------- sample moments


def test_sample_moments_hand_computed():
    y = _ypaths([[0.0, 1.0, 3.0], [0.0, 3.0, 1.0]])
    assert np.allclose(sample_mean(y), [0.0, 2.0, 2.0])
    # centered columns: (-1, 1) and (1, -1); lag products sum to -2, d-1 = 1
    assert np.allclose(sample_lag_cov(y), [0.0, 0.0, -2.0])


def test_sample_lag_cov_targets_previous_time():
    # nu_j estimates the accumulated noise at t_{j-1}
    grid = TimeGrid(0.0, 0.5, 11)
    ps = simulate_exact(PAIR, 20.0, grid, 10_000, 303)
    nu = sample_lag_cov(transform_paths(ps))
    d = 10_000
    for j in (2, 5, 10):
        v_prev = 0.1 * grid.times[j - 1]
        v_here = 0.1 * grid.times[j]
        se = math.sqrt((v_prev * v_here + v_prev**2) / (d - 1))
        assert abs(nu[j] - v_prev) < 3.0 * se
    assert nu[0] == 0.0


def test_sample_moments_validation():
    grid = TimeGrid(0.0, 1.0, 3)
    xs = PathSet(grid, np.array([[20.0, 30.0, 40.0]]), "X", K)
    with pytest.raises(ValueError):
        sample_mean(xs)
    with pytest.raises(ValueError):
        sample_lag_cov(xs)
    with pytest.raises(ValueError):
        sample_lag_cov(_ypaths([[0.0, 1.0, 2.0]]))  # single path


# ----------------------------------------------------------------- curve fits


def test_fit_moment_curves_knot_layout():
    grid = TimeGrid(0.0, 1.0, 6)
    mu = 0.3 * grid.times
    nu = np.zeros(6)
    nu[1:] = 0.05 * grid.times[:-1]
    mean_curve, cov_curve = fit_moment_curves(mu, nu, grid, stride=2)
    # mean knots thin the grid itself; covariance knots live one step back
    assert mean_curve.window == (0.0, 5.0)
    assert cov_curve.window == (0.0, 4.0)


def test_fit_moment_curves_stride_validation():
    grid = TimeGrid(0.0, 1.0, 6)
    mu = np.zeros(6)
    with pytest.raises(ValueError):
        fit_moment_curves(mu, np.zeros(6), grid, stride=0)
    with pytest.raises(ValueError):
        fit_moment_curves(mu, np.zeros(6), grid, stride=1.5)
    with pytest.raises(ValueError, match="three knots"):
        fit_moment_curves(mu, np.zeros(6), grid, stride=5)
    with pytest.raises(ValueError, match="match the grid"):
        fit_moment_curves(np.zeros(5), np.zeros(6), grid)


def test_spline_curve_validation():
    with pytest.raises(ValueError):
        SplineCurve([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        SplineCurve([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        SplineCurve([0.0, 1.0, 2.0], [1.0, 2.0])


# -------------------------------------------------------------- full pipeline


def test_pipeline_recovers_planted_affine_moments():
    grid = TimeGrid(0.0, 0.5, 21)
    times = grid.times
    mu = 0.3 * times
    nu = np.zeros(grid.n)
    nu[1:] = 0.05 * times[:-1]
    mean_curve, cov_curve = fit_moment_curves(mu, nu, grid)
    for t in np.linspace(0.5, 9.0, 18):
        assert mean_curve.derivative(t) == pytest.approx(0.3, abs=1e-8)
        assert cov_curve.derivative(t) == pytest.approx(0.05, abs=1e-10)


def test_pipeline_on_noiseless_identical_paths():
    # three identical straight-line transformed paths: the mean curve is
    # the line and the covariance is identically zero
    grid = TimeGrid(0.0, 0.5, 11)
    row = 0.3 * grid.times
    y = _ypaths(np.tile(row, (3, 1)), delta=0.5)
    est = estimate_pipeline(y, with_mle=True)
    for t in np.linspace(0.5, 4.5, 9):
        assert est.lambda_hat(t) == pytest.approx(0.3, abs=1e-8)
        assert est.sigma2_hat_raw(t) == pytest.approx(0.0, abs=1e-10)
    assert est.avg_lambda_hat(0.5, 4.5) == pytest.approx(0.3, abs=1e-10)
    lam_mle, s2_mle = est.mle
    assert lam_mle == pytest.approx(0.3, abs=1e-12)
    assert s2_mle == pytest.approx(0.0, abs=1e-14)


def test_pipeline_diagnostics_shape():
    ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 101), 30, 11)
    est = estimate_pipeline(ps, stride=5)
    diag = est.diagnostics
    assert set(diag) == {
        "clip_count",
        "ingest_clip_count",
        "transform_clip_count",
        "negative_noise_fraction",
        "low_confidence_boundary",
    }
    assert diag["clip_count"] == diag["ingest_clip_count"] + diag["transform_clip_count"] == 0
    assert 0.0 <= diag["negative_noise_fraction"] <= 1.0
    assert isinstance(diag["low_confidence_boundary"], bool)
    assert est.sigma2_hat_floored(5.0) >= 0.0


def test_pipeline_window_validation():
    ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 101), 10, 11)
    est = estimate_pipeline(ps)
    with pytest.raises(ValueError):
        est.avg_lambda_hat(5.0, 5.0)
    with pytest.raises(ValueError):
        est.avg_sigma2_hat(6.0, 2.0)


def test_estimates_tighten_with_more_paths():
    grid = TimeGrid(0.0, 0.01, 501)
    eval_times = np.linspace(1.0, 4.0, 61)
    medians = []
    for d in (10, 100, 1000):
        sups = []
        for r in range(5):
            ps = simulate_exact(PAIR, 20.0, grid, d, 888, replicate=r)
            est = estimate_pipeline(ps, stride=5, with_mle=False)
            sups.append(max(abs(est.lambda_hat(t) - 0.4) for t in eval_times))
        medians.append(float(np.median(sups)))
    assert medians[0] > medians[1] > medians[2]


# ------------------------------------------------------------------- baseline


def test_mle_exact_on_dyadic_line():
    # increments 0.125 per step of 0.25: rate exactly 0.5, zero residual
    y = _ypaths([0.125 * np.arange(9)], delta=0.25)
    lam, s2 = mle_homogeneous(y)
    assert lam == 0.5
    assert s2 == 0.0


def test_mle_sampling_distribution():
    lams, s2s = [], []
    for r in range(200):
        ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.01, 501), 20, 777, replicate=r)
        lam, s2 = mle_homogeneous(transform_paths(ps))
        lams.append(lam)
        s2s.append(s2)
    # var(lam_hat) = s2 / (paths * span) per replicate
    se_lam = math.sqrt(0.1 / (20 * 5.0) / 200)
    assert abs(np.mean(lams) - 0.4) < 3.0 * se_lam
    assert abs(np.mean(s2s) - 0.1) < 5e-4


def test_log_likelihood_gradient_matches_fd():
    ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.01, 101), 10, 2718)
    y = transform_paths(ps)
    lam0, s20, delta = 0.35, 0.12, 0.01
    inc = np.diff(y.values, axis=1)
    m = inc.size
    g_lam = float((inc - lam0 * delta).sum()) / s20
    rss = float(((inc - lam0 * delta) ** 2).sum())
    g_s2 = -0.5 * m / s20 + rss / (2.0 * s20**2 * delta)
    h = 1e-6
    fd_lam = (log_likelihood(y, lam0 + h, s20) - log_likelihood(y, lam0 - h, s20)) / (2 * h)
    fd_s2 = (log_likelihood(y, lam0, s20 + h) - log_likelihood(y, lam0, s20 - h)) / (2 * h)
    assert g_lam == pytest.approx(fd_lam, rel=1e-6)
    assert g_s2 == pytest.approx(fd_s2, rel=1e-6)


def test_log_likelihood_peaks_at_the_mle():
    ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.01, 101), 10, 2718)
    y = transform_paths(ps)
    lam_hat, s2_hat = mle_homogeneous(y)
    best = log_likelihood(y, lam_hat, s2_hat)
    for dl, ds in [(0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.005),
                   (0.02, 0.01), (-0.02, -0.005)]:
        assert best >= log_likelihood(y, lam_hat + dl, s2_hat + ds)


def test_log_likelihood_validation():
    y = _ypaths([[0.0, 0.1, 0.2]])
    with pytest.raises(ValueError):
        log_likelihood(y, 0.4, 0.0)
    grid = TimeGrid(0.0, 1.0, 3)
    xs = PathSet(grid, np.array([[20.0, 30.0, 40.0]]), "X", K)
    with pytest.raises(ValueError):
        mle_homogeneous(xs)
