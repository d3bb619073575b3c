import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sidiff import (
    EstimateResult,
    NaturalSpline,
    PathSet,
    RatePair,
    RawSeriesTable,
    TimeGrid,
    constant,
    cumulate_normalize,
    estimate_pipeline,
    fit_moment_curves,
    mle_homogeneous,
    sample_lag_cov,
    sample_mean,
    simulate_em,
    simulate_exact,
    transform_paths,
    x_to_y,
)
from sidiff import _kernels
from sidiff.estimate import CLIP_EPS, _abs_median

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


def test_transform_clips_what_ingest_leaves_near_capacity():
    # a last value within CLIP_EPS*K of K passes ingest as it is; the
    # transform clips and counts it, and the fit equals the fit of a copy
    # clipped beforehand
    rng = np.random.default_rng(5)
    counts = np.array([rng.poisson(3.0, 12), rng.poisson(3.0, 12)], dtype=float)
    counts[0, 0] = 2.0
    counts[0, -1] = 250.0 - 1e-7 - counts[0, :-1].sum()
    counts[1, 0] = 4.0
    table = RawSeriesTable(np.arange(12.0), ("a", "b"), counts, np.array([1000.0, 1000.0]))
    paths = cumulate_normalize(table, 0.25)
    assert paths.values[0, -1] == np.cumsum(counts[0])[-1] / 1000.0
    assert paths.values[0, -1] > (1.0 - CLIP_EPS) * 0.25
    assert "clip_count" not in paths.meta
    clipped = PathSet(paths.grid, np.minimum(paths.values, (1.0 - CLIP_EPS) * 0.25), "X", 0.25)
    est, est_clipped = estimate_pipeline(paths), estimate_pipeline(clipped)
    assert est.diagnostics["clip_count"] == 1
    assert est_clipped.diagnostics["clip_count"] == 0
    times = paths.grid.times
    assert np.array_equal(est.lambda_hat(times), est_clipped.lambda_hat(times))
    assert np.array_equal(est.sigma2_hat_raw(times), est_clipped.sigma2_hat_raw(times))
    assert est.mle == est_clipped.mle


def test_transform_clip_count_replaces_the_input_count():
    grid = TimeGrid(0.0, 1.0, 4)
    values = np.array([[20.0, 100.0, K, 150.0], [30.0, 60.0, 90.0, 120.0]])
    ps = PathSet(grid, values, "X", K, meta={"clip_count": 2})
    assert transform_paths(ps).meta["clip_count"] == 1
    assert estimate_pipeline(ps, with_mle=False).diagnostics["clip_count"] == 1


def test_transform_rejects_values_outside_interval():
    grid = TimeGrid(0.0, 1.0, 2)
    ps = PathSet(grid, np.array([[20.0, K + 1.0]]), "X", K)
    with pytest.raises(ValueError):
        transform_paths(ps)
    with pytest.raises(ValueError):
        transform_paths(_ypaths([[0.0, 1.0]]))


def _xpaths(values):
    values = np.asarray(values, dtype=float)
    return PathSet(TimeGrid(0.0, 1.0, values.shape[1]), values, "X", K)


def test_transform_counts_no_clip_at_the_clip_edges():
    lo, hi = CLIP_EPS * K, (1.0 - CLIP_EPS) * K
    y = transform_paths(_xpaths([[20.0, lo, hi], [hi, 100.0, lo]]))
    assert y.meta["clip_count"] == 0
    assert np.all(np.isfinite(y.values))


@pytest.mark.parametrize(
    "row, n_clipped",
    [
        ([20.0, 0.5 * CLIP_EPS * K, 100.0], 1),
        ([20.0, math.nextafter(CLIP_EPS * K, 0.0), math.nextafter((1.0 - CLIP_EPS) * K, K)], 2),
        ([20.0, 0.0, 100.0], 1),
        ([20.0, K, 100.0], 1),
        ([20.0, 0.0, K], 2),
        ([20.0, 5e-324, K - 1e-12], 2),
    ],
)
def test_transform_counts_values_beyond_the_clip_edges(row, n_clipped):
    y = transform_paths(_xpaths([row, [20.0, 50.0, 100.0]]))
    assert y.meta["clip_count"] == n_clipped
    assert np.all(np.isfinite(y.values))


def test_transform_range_check_sees_past_nan():
    # a negative value is refused as out of range even next to a NaN
    with pytest.raises(ValueError, match=r"^path values outside \[0, capacity\]$"):
        transform_paths(_xpaths([[20.0, math.nan, -1.0]]))
    with pytest.raises(ValueError, match=r"^path values outside \[0, capacity\]$"):
        transform_paths(_xpaths([[20.0, K + 1.0, math.nan]]))
    # a NaN on its own passes the range check and is refused as a state
    with pytest.raises(ValueError, match=r"^x must lie strictly inside \(0, 200\.0\)$"):
        transform_paths(_xpaths([[20.0, math.nan, 100.0]]))
    with pytest.raises(ValueError, match=r"^x0 must lie strictly inside \(0, 200\.0\)$"):
        transform_paths(_xpaths([[math.nan, math.nan]]))


# ------------------------------------------------------------- sample moments


def test_sample_moments_hand_computed():
    y = _ypaths([[0.0, 1.0, 3.0], [0.0, 3.0, 1.0]])
    assert np.allclose(sample_mean(y), [0.0, 2.0, 2.0])
    # centered columns: (-1, 1) and (1, -1); lag products sum to -2, d-1 = 1
    assert np.allclose(sample_lag_cov(y, sample_mean(y)), [0.0, 0.0, -2.0])


def test_sample_lag_cov_targets_previous_time():
    # nu_j estimates the accumulated noise at t_{j-1}
    grid = TimeGrid(0.0, 0.5, 11)
    ps = simulate_exact(PAIR, 20.0, grid, 10_000, 303)
    y = transform_paths(ps)
    nu = sample_lag_cov(y, sample_mean(y))
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
        sample_lag_cov(xs, xs.values.mean(axis=0))
    with pytest.raises(ValueError):
        single = _ypaths([[0.0, 1.0, 2.0]])
        sample_lag_cov(single, sample_mean(single))
    with pytest.raises(ValueError):
        mle_homogeneous(xs)


def test_sample_lag_cov_refuses_a_mean_of_another_shape(kernel_states):
    # a scalar or length-1 mean would broadcast into a covariance about a constant
    y = _ypaths([[0.0, 1.0, 3.0], [0.0, 3.0, 1.0]])
    for _ in kernel_states:
        for mean in (np.zeros(1), np.float64(0.0), np.zeros(2), np.zeros(4), np.zeros((1, 3))):
            shape = re.escape(str(np.shape(mean)))
            with pytest.raises(ValueError, match=rf"got \(2, 3\) and {shape}$"):
                sample_lag_cov(y, mean)
        with pytest.raises(ValueError, match=r"got \(2, 0\) and \(0,\)$"):
            sample_lag_cov(PathSet(TimeGrid(0.0, 1.0, 2), np.empty((2, 0)), "Y", K), np.empty(0))
        assert sample_lag_cov(y, [1.0, 1.0, 1.0]).tolist() == [0.0, -2.0, 0.0]  # a list of the width is taken


# ----------------------------------------------------------------- curve fits


def test_fit_moment_curves_knot_layout():
    grid = TimeGrid(0.0, 1.0, 6)
    mu = 0.3 * grid.times
    nu = np.zeros(6)
    nu[1:] = 0.05 * grid.times[:-1]
    mean_curve, cov_curve = fit_moment_curves(mu, nu, grid, stride=2)
    # mean knots thin the grid itself; covariance knots live one step back
    np.testing.assert_array_equal(mean_curve.x, [0.0, 2.0, 4.0, 5.0])
    np.testing.assert_array_equal(cov_curve.x, [0.0, 2.0, 4.0])


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


@pytest.mark.parametrize("stride", [True, 2.5, "3"])
def test_fit_moment_curves_refuses_non_integer_strides(stride):
    grid = TimeGrid(0.0, 1.0, 6)
    with pytest.raises(ValueError, match=f"^stride must be an integer, not {stride!r}$"):
        fit_moment_curves(np.zeros(6), np.zeros(6), grid, stride=stride)


# -------------------------------------------------------------- full pipeline


def test_pipeline_recovers_planted_affine_moments():
    grid = TimeGrid(0.0, 0.5, 21)
    times = grid.times
    mu = 0.3 * times
    nu = np.zeros(grid.n)
    nu[1:] = 0.05 * times[:-1]
    mean_curve, cov_curve = fit_moment_curves(mu, nu, grid)
    for t in np.linspace(0.5, 9.0, 18):
        assert mean_curve.derivative()(t) == pytest.approx(0.3, abs=1e-8)
        assert cov_curve.derivative()(t) == pytest.approx(0.05, abs=1e-10)


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
    assert set(diag) == {"clip_count", "negative_noise_fraction", "low_confidence_boundary"}
    assert diag["clip_count"] == 0
    assert 0.0 <= diag["negative_noise_fraction"] <= 1.0
    assert isinstance(diag["low_confidence_boundary"], bool)
    assert est.sigma2_hat_floored(5.0) >= 0.0


@pytest.mark.parametrize("stride", [1, 7])
def test_grid_samples_equal_the_curve_methods(stride):
    ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 101), 30, 11)
    est = estimate_pipeline(ps, stride=stride)
    times = est.grid.times
    assert np.array_equal(est.lambda_grid, est.lambda_hat(times))
    assert np.array_equal(est.sigma2_grid, est.sigma2_hat_raw(times))
    assert np.array_equal(np.maximum(est.sigma2_grid, 0.0), est.sigma2_hat_floored(times))
    # a result built directly, on a grid other than the knots
    grid = TimeGrid(-0.125, 0.25, 7)
    direct = EstimateResult(
        grid=grid,
        mean_curve=NaturalSpline([0.0, 0.5, 1.0], [0.0, 0.25, 0.5]),
        cov_curve=NaturalSpline([0.0, 0.5, 1.0], [0.0, 0.0625, 0.0625]),
    )
    assert np.array_equal(direct.lambda_grid, direct.lambda_hat(grid.times))
    assert np.array_equal(direct.sigma2_grid, direct.sigma2_hat_raw(grid.times))
    assert direct.sigma2_grid.min() < 0.0 <= direct.sigma2_hat_floored(grid.times).min()


def test_grid_samples_go_through_the_curve_methods(monkeypatch):
    # a wrapper on the curve methods (a tracer's, say) sees the one grid
    # sampling of each curve that building a result makes
    calls = []

    def counting(name):
        method = getattr(EstimateResult, name)

        def wrapper(self, t):
            calls.append((name, t is self.grid.times))
            return method(self, t)

        monkeypatch.setattr(EstimateResult, name, wrapper)

    counting("lambda_hat")
    counting("sigma2_hat_raw")
    ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 101), 30, 11)
    est = estimate_pipeline(ps, stride=5)
    assert calls == [("lambda_hat", True), ("sigma2_hat_raw", True)]
    calls.clear()
    EstimateResult(grid=est.grid, mean_curve=est.mean_curve, cov_curve=est.cov_curve)
    assert calls == [("lambda_hat", True), ("sigma2_hat_raw", True)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1.0, -1.0]), min_size=2, max_size=30))
@example([3.0, -1.0, 2.0])
@example([4.0, -1.0, 2.0, 3.0])
@example([0.0, -0.0, 0.0, 0.0])
@example([2.0, 2.0, -2.0, 5.0])
@example([1.0, 1.0, 1.0, 1.0, 7.0, -1.0])
def test_abs_median_equals_numpy(values):
    # odd and even lengths, ties and zeros
    values = np.array(values)
    assert _abs_median(values) == float(np.median(np.abs(values)))


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


def _increment_loglik(ypaths, transmission, noise):
    # exact Gaussian log-likelihood of the increments under constant
    # rates: iid with mean transmission * delta, variance noise * delta
    delta = ypaths.grid.delta
    inc = np.diff(ypaths.values, axis=1)
    m = inc.size
    rss = float(((inc - transmission * delta) ** 2).sum())
    return -0.5 * m * np.log(2.0 * np.pi * noise * delta) - rss / (2.0 * noise * delta)


def test_increment_likelihood_peaks_at_the_mle():
    ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.01, 101), 10, 2718)
    y = transform_paths(ps)
    lam_hat, s2_hat = mle_homogeneous(y)
    best = _increment_loglik(y, lam_hat, s2_hat)
    for dl, ds in [(0.01, 0.0), (-0.01, 0.0), (0.0, 0.01), (0.0, -0.005),
                   (0.02, 0.01), (-0.02, -0.005)]:
        assert best >= _increment_loglik(y, lam_hat + dl, s2_hat + ds)


# ------------------------------------------------------- in-place arithmetic


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(2, 60),
    n=st.integers(4, 3000),
    seed=st.integers(0, 2**32 - 1),
    zero_start=st.booleans(),
    coarse=st.booleans(),
)
def test_in_place_estimates_match_the_one_line_expressions(d, n, seed, zero_start, coarse):
    # sample_lag_cov, mle_homogeneous and x_to_y keep few full-size
    # arrays; each must equal the plain expression bit for bit, signed
    # zeros included (coarse values make exact ties and zero products)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((d, n))
    if coarse:
        y = np.round(y)
    if zero_start:
        y[:, 0] = 0.0
    delta = 0.01
    ypaths = _ypaths(y, delta)

    centered = y - y.mean(axis=0)
    nu = np.empty(n)
    nu[0] = 0.0
    nu[1:] = (centered[:, 1:] * centered[:, :-1]).sum(axis=0) / (d - 1)
    with pytest.MonkeyPatch.context() as m:  # the C kernel, where it builds, then its numpy twin
        got = [sample_lag_cov(ypaths, sample_mean(ypaths))] if _kernels.library() is not None else []
        m.setattr(_kernels, "library", lambda: None)
        got.append(sample_lag_cov(ypaths, sample_mean(ypaths)))
    assert all(cov.tobytes() == nu.tobytes() for cov in got)

    inc = np.diff(y, axis=1)
    m = inc.size
    lam = float(inc.sum()) / (m * delta)
    s2 = float(((inc - lam * delta) ** 2).sum()) / (m * delta)
    assert np.array([mle_homogeneous(ypaths)]).tobytes() == np.array([(lam, s2)]).tobytes()

    x = K * rng.uniform(1e-9, 1.0 - 1e-9, (d, n))
    x0 = x[:, :1]
    expected = np.log(x * (K - x0) / (x0 * (K - x)))
    assert x_to_y(x, x0, K).tobytes() == expected.tobytes()
    over = x.copy()
    assert x_to_y(over, x0, K, out=over) is over
    assert over.tobytes() == expected.tobytes()
    assert x_to_y(x, 20.0, K).tobytes() == np.log(x * (K - 20.0) / (20.0 * (K - x))).tobytes()
    scalar = x_to_y(float(x[0, -1]), 20.0, K)
    assert type(scalar) is float
    assert scalar == float(np.log(x[0, -1] * (K - 20.0) / (20.0 * (K - x[0, -1]))))


@pytest.mark.parametrize("simulator", ["exact", "em"])
def test_estimate_pipeline_peaks_near_two_bundles(simulator):
    # one 50 x 5001 replicate: the transformed paths plus one other
    # full-size array (the transform's denominator, or the MLE's
    # increments) at a time, whether or not the transform clips
    grid = TimeGrid(0.0, 0.01, 5001)
    if simulator == "exact":
        ps = simulate_exact(PAIR, 20.0, grid, 50, 11)
    else:
        ps = simulate_em(PAIR, 20.0, grid, 50, 11, drift_correction="constant")
    tracemalloc.start()
    try:
        estimate_pipeline(ps, stride=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * ps.values.nbytes
    # the exact bundle saturates into the clip band, EM clamps onto its edges
    assert (transform_paths(ps).meta["clip_count"] > 0) == (simulator == "exact")
