"""Moment-based inference of the transmission and noise intensities.

The transformed coordinate of each path is Gaussian with mean equal to
the running transmission integral and variance equal to the running
noise integral.  Cross-sectional sample moments therefore estimate
those integrals pointwise in time: the sample mean targets the
transmission integral directly, and the lagged sample covariance
(current column against the previous one) targets the noise integral
at the earlier time, because increments past the earlier time are
independent of the earlier value.  The lagged covariance is one call
of the C kernel `sidiff_lag_cov` (see sidiff._kernels), or, where it
cannot be built, a numpy loop over the paths that does the same
operations in the same order and gives the same bytes.

Fitting smooth curves through the moment sequences and differentiating
recovers the intensities themselves.  A homogeneous-rates maximum
likelihood fit on the increments is included as a baseline.  X-space
paths reach the Gaussian coordinate through transform_paths, which
clips and counts; only experiment runs pass their Euler-Maruyama
replicates, already inside the clip band, straight to model.x_to_y.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .model import CLIP_EPS, x_to_y
from .rates import _whole_number
from .simulate import PathSet, TimeGrid
from .spline import NaturalSpline

__all__ = [
    "EstimateResult",
    "transform_paths",
    "sample_mean",
    "sample_lag_cov",
    "fit_moment_curves",
    "estimate_pipeline",
    "mle_homogeneous",
]

# |estimated curve| below this fraction of its scale near the window
# edge is flagged as low-confidence rather than trusted
EDGE_FLAG_FRACTION = 0.5


def transform_paths(paths: PathSet) -> PathSet:
    """Map X-space paths to the Gaussian coordinate, path by path.

    Each path is referenced to its own first observation, so the first
    column of the result is exactly zero.  This is the one place where
    X values are clipped: values within CLIP_EPS * capacity of 0 or of
    the capacity (count data near K, loaded bundles) are pulled inward
    to those edges before the log, and the number of clipped entries
    replaces meta["clip_count"].
    """
    if paths.space != "X":
        raise ValueError("transform_paths expects X-space paths")
    k = paths.capacity
    x = np.asarray(paths.values, dtype=float)
    # fmin and fmax skip NaN, as comparisons do
    if np.fmin.reduce(x, axis=None, initial=np.inf) < 0.0 or np.fmax.reduce(x, axis=None, initial=-np.inf) > k:
        raise ValueError("path values outside [0, capacity]")
    lo, hi = CLIP_EPS * k, (1.0 - CLIP_EPS) * k
    n_clipped = int(np.count_nonzero((x < lo) | (x > hi)))
    # the transform is written over the clipped values, so the result
    # and the transform's denominator are the only full-size arrays made
    y = np.clip(x, lo, hi)
    x_to_y(y, y[:, :1].copy(), k, out=y)  # each path's first value is its reference point
    return replace(paths, values=y, space="Y", meta={**paths.meta, "clip_count": n_clipped})


def sample_mean(ypaths: PathSet) -> np.ndarray:
    """Cross-sectional mean of the transformed paths, per grid time."""
    if ypaths.space != "Y":
        raise ValueError("expected Y-space paths")
    return ypaths.values.mean(axis=0)


def sample_lag_cov(ypaths: PathSet, mean: np.ndarray) -> np.ndarray:
    """Lag-one sample covariance, one value per grid step.

    `mean` is the cross-sectional mean of the paths, `sample_mean(ypaths)`.
    Entry j (j = 1..n-1) is the covariance of column j with column
    j - 1, normalized by (d - 1).  Its target is the noise integral
    accumulated by time t_{j-1}, since what happens after t_{j-1} is
    independent of the value there.  Entry 0 is identically zero (the
    first column is constant).  A mean of any shape but (n,) is refused,
    where it would broadcast into a covariance about another centre.
    """
    if ypaths.space != "Y":
        raise ValueError("expected Y-space paths")
    # the kernel reads raw pointers: both arrays C-contiguous float64,
    # which is what numpy's subtract casts them to anyway
    y = np.ascontiguousarray(ypaths.values, dtype=float)
    d = y.shape[0]
    if d < 2:
        raise ValueError("lagged covariance needs at least two paths")
    if y.ndim != 2 or y.shape[1] < 1 or np.shape(mean) != (y.shape[1],):
        raise ValueError(f"need paths of shape (d, n >= 1) and a mean of shape (n,), got {y.shape} and {np.shape(mean)}")
    mean = np.ascontiguousarray(mean, dtype=float)
    lib = _kernels.library()
    if lib is not None:
        out = np.empty(y.shape[1])
        lib.sidiff_lag_cov(d, y.shape[1], y.ctypes.data, mean.ctypes.data, out.ctypes.data)
        return out
    # one path at a time: centre the row, multiply it by its own lag
    # and add it into one zeroed accumulator, which is how .sum(axis=0)
    # adds up the rows of a C-ordered product array
    row = np.empty(y.shape[1])
    prod = np.empty(y.shape[1] - 1)
    out = np.zeros(y.shape[1])
    for i in range(d):
        np.subtract(y[i], mean, out=row)
        np.multiply(row[1:], row[:-1], out=prod)
        out[1:] += prod
    out[1:] /= d - 1
    return out


def fit_moment_curves(
    mu: np.ndarray,
    nu: np.ndarray,
    grid: TimeGrid,
    stride: int = 1,
) -> tuple[NaturalSpline, NaturalSpline]:
    """Natural cubic splines through the integrated-transmission and
    integrated-noise sequences.

    The mean sequence mu_j sits at the grid times.  The lagged
    covariance nu_j (j >= 1) estimates the noise integral at the
    *previous* grid time, so those entries sit at t_0 .. t_{n-2}; the
    unused leading entry of nu is the constant first column's zero.
    nu_1 is identically zero, which pins the variance fit at the window
    start.  stride > 1 thins the knots to every stride-th point
    (endpoints always kept), trading resolution for smoothness of the
    derivative.  Each spline needs three knots, so the grid needs at
    least four observations (nu has one knot fewer than mu).  Returns
    the mean curve and the covariance curve, two `NaturalSpline`s.
    """
    _whole_number(stride, "stride", 1)
    times = grid.times
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != times.shape or nu.shape != times.shape:
        raise ValueError("moment sequences must match the grid length")
    if grid.n < 4:
        raise ValueError(f"at least four observations are needed for the moment fit, got {grid.n}")

    idx = _thin_indices(grid.n, stride)
    idx_cov = _thin_indices(grid.n - 1, stride)
    if idx.size < 3 or idx_cov.size < 3:
        raise ValueError("fewer than three knots after thinning; lower the stride")
    mean_curve = NaturalSpline(times[idx], mu[idx])
    cov_curve = NaturalSpline(times[:-1][idx_cov], nu[1:][idx_cov])
    return mean_curve, cov_curve


def _thin_indices(n: int, stride: int) -> np.ndarray:
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


@dataclass
class EstimateResult:
    """Fitted intensity curves plus diagnostics.

    lambda_hat / sigma2_hat_raw are derivatives of the fitted integral
    curves; sigma2_hat_floored clips the noise intensity at zero, since
    the raw derivative can dip negative where the curvature fit
    overshoots.  avg_* are endpoint-difference summaries: the mean
    slope of the integral curve over a window, which for constant rates
    estimates the rate itself.  The two derivative polynomials are
    built, and sampled once on the grid as lambda_grid and sigma2_grid,
    when the result is made; those arrays equal
    lambda_hat(grid.times) and sigma2_hat_raw(grid.times) bit for bit.
    """

    grid: TimeGrid
    mean_curve: NaturalSpline
    cov_curve: NaturalSpline
    mle: tuple[float, float] | None = None
    diagnostics: dict = field(default_factory=dict)
    lambda_grid: np.ndarray = field(init=False, repr=False, compare=False)
    sigma2_grid: np.ndarray = field(init=False, repr=False, compare=False)
    _mean_slope: NaturalSpline = field(init=False, repr=False)
    _cov_slope: NaturalSpline = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._mean_slope = self.mean_curve.derivative()
        self._cov_slope = self.cov_curve.derivative()
        self.lambda_grid = self.lambda_hat(self.grid.times)
        self.sigma2_grid = self.sigma2_hat_raw(self.grid.times)

    def lambda_hat(self, t):
        return self._mean_slope(t)

    def sigma2_hat_raw(self, t):
        return self._cov_slope(t)

    def sigma2_hat_floored(self, t):
        return np.maximum(self._cov_slope(t), 0.0)

    def avg_lambda_hat(self, a: float, b: float) -> float:
        if not b > a:
            raise ValueError("window must have b > a")
        return float(self.mean_curve(b) - self.mean_curve(a)) / (b - a)

    def avg_sigma2_hat(self, a: float, b: float) -> float:
        if not b > a:
            raise ValueError("window must have b > a")
        return float(self.cov_curve(b) - self.cov_curve(a)) / (b - a)


def estimate_pipeline(
    paths: PathSet,
    *,
    stride: int = 1,
    with_mle: bool = True,
) -> EstimateResult:
    """Transform, moment, spline, differentiate: the full curve fit.

    with_mle additionally runs the homogeneous-rates baseline on the
    same transformed increments (meaningful when the true rates are
    constant; a time-averaged summary otherwise).
    """
    ypaths = paths if paths.space == "Y" else transform_paths(paths)
    # the MLE's full-size increments go before the splines exist
    mle = mle_homogeneous(ypaths) if with_mle else None
    mu = sample_mean(ypaths)
    nu = sample_lag_cov(ypaths, mu)
    mean_curve, cov_curve = fit_moment_curves(mu, nu, ypaths.grid, stride=stride)
    result = EstimateResult(grid=ypaths.grid, mean_curve=mean_curve, cov_curve=cov_curve, mle=mle)
    result.diagnostics = {
        "clip_count": int(ypaths.meta.get("clip_count", 0)),
        "negative_noise_fraction": float(np.mean(result.sigma2_grid < 0.0)),
        "low_confidence_boundary": _edge_flag(result.lambda_grid),
    }
    return result


def _edge_flag(lam: np.ndarray) -> bool:
    # natural boundary conditions force zero curvature at the ends, so
    # the derivative there leans on extrapolated shape; flag when the
    # edge values stray far from the interior level
    if lam.size < 5:
        return True
    interior = lam[1:-1]
    scale = _abs_median(interior)
    if scale == 0.0:
        return False
    edge_dev = max(abs(lam[0] - interior[0]), abs(lam[-1] - interior[-1]))
    return bool(edge_dev > EDGE_FLAG_FRACTION * scale)


def _abs_median(values: np.ndarray) -> float:
    """np.median(np.abs(values)): the middle magnitude, or the mean of
    the middle two, without the numpy.ma import np.median makes on its
    first call."""
    mags = np.abs(values)
    half = mags.size // 2
    mid = np.partition(mags, (half - 1, half))
    return float(mid[half] if mags.size % 2 else (mid[half - 1] + mid[half]) / 2.0)


def mle_homogeneous(ypaths: PathSet) -> tuple[float, float]:
    """Maximum likelihood fit assuming both intensities are constant.

    Increments of the transformed coordinate are iid Gaussian with mean
    lam * delta and variance s2 * delta, so the fit is the increment
    mean over delta and the centered second moment over delta.
    """
    if ypaths.space != "Y":
        raise ValueError("expected Y-space paths")
    delta = ypaths.grid.delta
    inc = np.diff(ypaths.values, axis=1)
    m = inc.size
    if m < 1:
        raise ValueError("need at least one increment")
    lam_hat = float(inc.sum()) / (m * delta)
    inc -= lam_hat * delta
    np.square(inc, out=inc)
    s2_hat = float(inc.sum()) / (m * delta)
    return lam_hat, s2_hat
