"""Closed-form law of the logistic growth diffusion on (0, K).

The process X(t) is built by randomizing the accumulated growth of the
logistic curve: with Lam(t|t0) the integral of the transmission
intensity and V(t|t0) the integral of the noise intensity, the
transformed coordinate

    y = ln( x (K - x0) / (x0 (K - x)) )

is Gaussian with mean Lam(t|t0) and variance V(t|t0).  Everything here
(transition pdf/cdf, conditional median and moments) is that one fact
plus the change of variables.  The drift/diffusion pair of the
equivalent state equation follows by Ito expansion of the inverse
transform; note the state-dependent correction in the drift, without
which the transformed coordinate would not have unit slope in the
transmission intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rates import (
    RateFunction, RatePair, _finite_number, _positive_number, _whole_number, constant, cumulative, evaluate, integrate
)

__all__ = [
    "DegenerateTimeError",
    "TransitionLaw",
    "deterministic_solution",
    "threshold_time",
    "x_to_y",
    "y_to_x",
    "infinitesimal_moments",
    "transition_pdf",
    "transition_cdf",
    "conditional_median",
    "conditional_moment",
]

BISECT_TIME_TOL = 1e-10
BISECT_RTOL = 4.0 * np.finfo(float).eps
BISECT_MAX_ITER = 100
MOMENT_HALF_WIDTH = 40.0  # standard deviations; the Gaussian mass beyond is below 1e-340
MOMENT_RTOL = 1e-12
# relative width of the boundary band: X values within CLIP_EPS * K of 0 or
# K are clipped by estimate.transform_paths and clamped by the EM integrator,
# which refuses an x0 there
CLIP_EPS = 1e-9


def _tanh_sinh_table(t_max: float, last_level: int):
    """Tanh-sinh nodes and weights on [-1, 1], sorted by level.

    Level 0 is the integer steps t = k with |t| <= t_max, level l >= 1
    the odd multiples of 2^-l; the rule at level l is 2^-l times the
    weighted sum over levels 0..l.  Each node comes as x and as 1 + x,
    the latter without cancellation near x = -1 (at t = -3.2 it is
    about 4e-17); the table is symmetric, so 1 + x at -t is 1 - x at t.
    """
    parts = []
    for level in range(last_level + 1):
        top = math.floor(t_max * 2**level)
        k = np.arange(-top, top + 1)
        parts.append(k[k % 2 == 1] * 2.0**-level if level else k.astype(float))
    t = np.concatenate(parts)
    u = 0.5 * math.pi * np.sinh(t)
    one_plus_x = 2.0 / (1.0 + np.exp(-2.0 * u))
    weight = 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    level_end = np.cumsum([part.size for part in parts])
    return np.tanh(u), one_plus_x, weight, level_end


# the nodes of levels 0..6 are evaluated in one pass, each later level
# only when the last two level sums still differ by more than MOMENT_RTOL
_TS_FIRST_LEVEL = 6
_TS_LAST_LEVEL = 10
_TS_X, _TS_ONE_PLUS_X, _TS_WEIGHT, _TS_LEVEL_END = _tanh_sinh_table(3.2, _TS_LAST_LEVEL)
_LOG_NORM = -0.5 * math.log(2.0 * math.pi)


class DegenerateTimeError(ValueError):
    """The requested transition law is a point mass.

    Raised for t <= t0 or when the accumulated noise variance is zero.
    `point_mass` carries the location of the unit atom.
    """

    def __init__(self, message: str, point_mass: float):
        super().__init__(message)
        self.point_mass = float(point_mass)


def _as_rate(lam) -> RateFunction:
    return lam if isinstance(lam, RateFunction) else constant(float(lam))


def deterministic_solution(capacity: float, x0: float, transmission, t0: float, t):
    """Noise-free logistic solution started from x0 at t0.

    `transmission` may be a RateFunction or a plain number.  Vectorized
    over t, which must be finite and >= t0; t0 must be finite.
    """
    _check_state(x0, capacity, "x0")
    t0 = _finite_number(t0, "t0")
    lam = _as_rate(transmission)
    t_arr = np.asarray(t, dtype=float)
    if not np.isfinite(t_arr).all():
        raise ValueError(f"t must be finite, got {t!r}")
    if np.any(t_arr < t0):
        raise ValueError("t must be >= t0")
    ends = cumulative(lam, np.append(t0, t_arr.ravel()))
    out = y_to_x(ends[1:] - ends[0], x0, capacity)
    if np.ndim(t) == 0:
        return float(out[0])
    return out.reshape(t_arr.shape)


def threshold_time(
    capacity: float,
    x0: float,
    transmission,
    level: float,
    t0: float = 0.0,
    t_max: float = 1e6,
) -> float:
    """First time the noise-free solution reaches `level`.

    Constant transmission uses the closed form
    t0 + ln(level (K - x0) / (x0 (K - level))) / value; any other kind
    is solved by bisection on the accumulated growth (time tolerance
    1e-10).  Bisection rather than Newton: the transmission intensity
    may vanish or change sign inside the window.  The search ends at
    t_max (t0 and t_max must be finite), or at the last knot of a
    tabulated transmission if that comes first; a level not reached by
    then raises ValueError "threshold not reached within [t0, end]".
    """
    _check_state(x0, capacity, "x0")
    t0, t_max = _finite_number(t0, "t0"), _finite_number(t_max, "t_max")
    if not (x0 < level < capacity):
        raise ValueError(f"level must lie in (x0, capacity) = ({x0}, {capacity})")
    lam = _as_rate(transmission)
    target = x_to_y(level, x0, capacity)
    end = t_max if lam.window is None else min(t_max, lam.window[1])
    if lam.kind == "constant":
        value = lam.params["value"]
        if value <= 0.0:
            raise ValueError("constant transmission must be positive to reach the level")
        t_star = t0 + target / value
        if t_star > end:
            raise ValueError(f"threshold not reached within [{t0}, {end}]")
        return t_star
    base = float(cumulative(lam, t0))

    def excess(s: float) -> float:
        return float(cumulative(lam, s)) - base - target

    # bracket the root by doubling, capped at the end of the search, then bisect
    hi = min(t0 + 1.0, end)
    while hi <= t0 or excess(hi) < 0.0:
        if hi >= end:
            raise ValueError(f"threshold not reached within [{t0}, {end}]")
        hi = min(t0 + 2.0 * (hi - t0), end)
    return _bisect(excess, t0, hi)


def _bisect(f, a: float, b: float) -> float:
    """Root of f on [a, b], f(a) < 0 <= f(b), by interval halving.

    The steps of scipy's `optimize.bisect` with xtol BISECT_TIME_TOL and
    its default rtol and iteration cap, so the root is the same float.
    """
    a, b = float(a), float(b)
    fa = f(a)
    if fa == 0.0:
        return a
    if f(b) == 0.0:
        return b
    half = b - a
    for _ in range(BISECT_MAX_ITER):
        half *= 0.5
        mid = a + half
        fm = f(mid)
        if fm * fa >= 0.0:
            a = mid
        if fm == 0.0 or abs(half) < BISECT_TIME_TOL + BISECT_RTOL * abs(mid):
            return mid
    raise RuntimeError(f"bisection did not converge in {BISECT_MAX_ITER} halvings")


def _check_state(x, capacity, name="x"):
    # numbers only: a float dtype would take the string "20" and the bool True.
    # numpy's min and max decide, under numpy's comparison rules (NaN fails lo > 0);
    # a capacity failing the one comparison goes to the capacity rule, which refuses it
    if not 0.0 < capacity < math.inf:
        _positive_number(capacity, "capacity")
    arr = np.asarray(x)
    if arr.dtype.kind in "iuf":
        if not arr.size:
            return
        lo, hi = (arr[()],) * 2 if arr.ndim == 0 else (arr.min(), arr.max())
        if lo > 0.0 and math.isfinite(hi) and hi < capacity:
            return
    raise ValueError(f"{name} must lie strictly inside (0, {capacity})")


def x_to_y(x, x0: float, capacity: float, out=None):
    """Forward transform ln(x (K - x0) / (x0 (K - x))).  Vectorized.

    With `out`, a float array of x's shape, the result is written there
    and returned; `out` may be x itself.
    """
    _check_state(x0, capacity, "x0")
    _check_state(x, capacity, "x")
    # besides the result (made here unless `out` is given), the
    # denominator is the one full-size array; the ratio and the log are
    # taken in place, at least 1-d so that scalars go the same way
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    den = np.subtract(capacity, x_arr)
    den *= x0
    out = np.multiply(x_arr, capacity - x0, out=out)
    out /= den
    np.log(out, out=out)
    if np.ndim(x) == 0:
        return float(out[0])
    return out


def y_to_x(y, x0: float, capacity: float):
    """Inverse transform K x0 / (x0 + (K - x0) exp(-y)).  Vectorized.

    Large |y| saturates toward the interval ends; values within roughly
    37 of zero stay strictly inside (0, K) in double precision.  Below
    about -709 exp(-y) overflows to inf and the result is exactly 0,
    without an overflow warning.
    """
    _check_state(x0, capacity, "x0")
    y_arr = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        out = capacity * x0 / (x0 + (capacity - x0) * np.exp(-y_arr))
    if np.ndim(y) == 0:
        return float(out)
    return out


def infinitesimal_moments(x, t: float, rates: RatePair):
    """Drift and squared diffusion of the state equation at (x, t).

    drift     = x (K - x) / K * (lam + s2 (K - 2 x) / (2 K))
    diffusion = s2 * x**2 (K - x)**2 / K**2

    Equivalently drift = lam x (K - x) / K + (1/4) d(diffusion)/dx; the
    state-dependent second term is the Ito correction of the inverse
    transform.  Both vanish at x = 0 and x = K, so the boundary is
    unattainable.  Accepts the closed interval [0, K] and a finite t.
    """
    _finite_number(t, "t")
    x_arr = np.asarray(x, dtype=float)
    k = rates.capacity
    if np.any(x_arr < 0.0) or np.any(x_arr > k):
        raise ValueError(f"x must lie in [0, {k}]")
    lam = evaluate(rates.transmission, t)
    s2 = evaluate(rates.noise, t)
    logistic = x_arr * (k - x_arr) / k
    drift = logistic * (lam + s2 * (k - 2.0 * x_arr) / (2.0 * k))
    diffusion = s2 * logistic**2
    if np.ndim(x) == 0:
        return float(drift), float(diffusion)
    return drift, diffusion


@dataclass(frozen=True, eq=False)
class TransitionLaw:
    """Conditional law of X(t) given X(t0) = x0, for a finite t0 (kept as a float)."""

    rates: RatePair
    x0: float
    t0: float

    def __post_init__(self) -> None:
        _check_state(self.x0, self.rates.capacity, "x0")
        # a float t0 takes the quick path of integrate's checks on every call
        object.__setattr__(self, "t0", _finite_number(self.t0, "t0"))

    def accumulated(self, t: float) -> tuple[float, float]:
        """(growth, variance) integrals over [t0, t], for a finite t.

        Raises DegenerateTimeError when the law at t is a point mass.
        """
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        if t <= self.t0:
            raise DegenerateTimeError(
                f"law at t={t} <= t0={self.t0} is a point mass at x0", self.x0
            )
        lam_int = integrate(self.rates.transmission, self.t0, t)
        var_int = integrate(self.rates.noise, self.t0, t)
        if var_int <= 0.0:
            atom = y_to_x(lam_int, self.x0, self.rates.capacity)
            raise DegenerateTimeError(
                f"zero accumulated noise on [{self.t0}, {t}], law is a point mass", atom
            )
        return lam_int, var_int


def transition_pdf(law: TransitionLaw, x, t: float):
    """Transition density at state x and time t.  Vectorized over x."""
    lam_int, var_int = law.accumulated(t)
    k = law.rates.capacity
    y = x_to_y(x, law.x0, k)
    x_arr = np.asarray(x, dtype=float)
    log_pdf = (
        math.log(k)
        - np.log(x_arr)
        - np.log(k - x_arr)
        - 0.5 * math.log(2.0 * math.pi * var_int)
        - (y - lam_int) ** 2 / (2.0 * var_int)
    )
    out = np.exp(log_pdf)
    if np.ndim(x) == 0:
        return float(out)
    return out


def transition_cdf(law: TransitionLaw, x, t: float):
    """Transition distribution function at state x and time t.

    The error function is `math.erf`, applied element by element.
    """
    lam_int, var_int = law.accumulated(t)
    y = x_to_y(x, law.x0, law.rates.capacity)
    z = np.asarray((y - lam_int) / math.sqrt(2.0 * var_int), dtype=float)
    erf = np.fromiter(map(math.erf, z.ravel().tolist()), dtype=float, count=z.size)
    out = 0.5 * (1.0 + erf.reshape(z.shape))
    if np.ndim(x) == 0:
        return float(out)
    return out


def conditional_median(law: TransitionLaw, t: float) -> float:
    """Median of X(t) given X(t0) = x0: the noise-free solution."""
    return deterministic_solution(law.rates.capacity, law.x0, law.rates.transmission, law.t0, t)


def conditional_moment(law: TransitionLaw, m: int, t: float) -> float:
    """m-th conditional moment E[X(t)^m | X(t0) = x0].

    A tanh-sinh rule (Takahasi & Mori 1974) over the standardized
    Gaussian coordinate z on [-40, 40], split at the logistic knee
    z = (ln r - Lam) / sd, r = (K - x0) / x0, into [-40, knee] and
    [knee, 40] (one segment when the knee lies outside).  The integrand
    (x / K)^m times the standard normal density is formed in log space,
    -m * logaddexp(0, ln r - Lam - sd z) - z^2 / 2, so it lies in [0, 1]
    and cannot overflow at any growth or variance.  The rule's nodes
    crowd double-exponentially toward each segment's ends, so the knee's
    boundary layer, 1 / sd wide in z, is resolved at any variance.

    One array pass evaluates the integrand on the 409 nodes per segment
    of levels 0..6 and takes the level sums from a cumulative sum; each
    further level (at most four) is added only while the last two level
    sums differ by more than 1e-12 relative, and RuntimeError is raised
    if level 10 still does not meet it.  Checked against a quadrature
    split at the knee to 1e-13 relative for growths up to 50 in
    magnitude, x0 / K from 5e-5 to 0.995 and variances from 1e-14 to
    1e6, in at most three array passes.  The order m must be an int or
    numpy integer >= 1; a bool is refused.
    """
    _whole_number(m, "moment order m", 1)
    lam_int, var_int = law.accumulated(t)
    k = law.rates.capacity
    shift = math.log((k - law.x0) / law.x0) - lam_int
    sd = math.sqrt(var_int)
    knee = shift / sd
    width = MOMENT_HALF_WIDTH
    # segment s maps x in [-1, 1] to z = mid_s + half_s x; split at the
    # knee, half_s < 0 on [-40, knee], so that the knee is x = -1 in both
    # and the exponent's argument sd (knee - z) = -sd half_s (1 + x) is
    # exact on the nodes crowding there
    if abs(knee) < width:
        mid = np.array([[0.5 * (knee - width)], [0.5 * (knee + width)]])
        half = np.array([[-0.5 * (width + knee)], [0.5 * (width - knee)]])
        base, offset = 0.0, _TS_ONE_PLUS_X
    else:
        mid = np.zeros((1, 1))
        half = np.full((1, 1), width)
        base, offset = shift, _TS_X
    slope = sd * half
    log_scale = _LOG_NORM + np.log(np.abs(half))

    def weighted(start: int, stop: int) -> np.ndarray:
        z = mid + half * _TS_X[start:stop]
        a = base - slope * offset[start:stop]
        # softplus(a) = logaddexp(0, a), at half the cost of np.logaddexp
        softplus = np.maximum(a, 0.0) + np.log1p(np.exp(-np.abs(a)))
        f = np.exp(log_scale - m * softplus - 0.5 * z * z)
        return f.sum(axis=0) * _TS_WEIGHT[start:stop]

    level = _TS_FIRST_LEVEL
    raw = np.cumsum(weighted(0, _TS_LEVEL_END[level]))[_TS_LEVEL_END[level - 1 : level + 1] - 1]
    total = raw[-1]
    previous, value = math.ldexp(raw[0], 1 - level), math.ldexp(total, -level)
    while abs(value - previous) > MOMENT_RTOL * value:
        if level == _TS_LAST_LEVEL:
            raise RuntimeError(
                f"conditional moment not converged to {MOMENT_RTOL} relative at tanh-sinh level {level}"
            )
        level += 1
        total += weighted(_TS_LEVEL_END[level - 1], _TS_LEVEL_END[level]).sum()
        previous, value = value, math.ldexp(total, -level)
    # a law saturated at K integrates to 1 + a few ulps; the moment cannot exceed K^m
    return k**m * min(value, 1.0)
