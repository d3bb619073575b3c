import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import bisect
from scipy.special import erf, expit

from sidiff import model
from sidiff import (
    DegenerateTimeError,
    RatePair,
    TransitionLaw,
    conditional_median,
    conditional_moment,
    constant,
    deterministic_solution,
    infinitesimal_moments,
    sinusoid,
    tabulated,
    threshold_time,
    transition_cdf,
    transition_pdf,
    x_to_y,
    y_to_x,
)

K = 200.0
X0 = 20.0


def _pair(lam, s2, capacity=K):
    return RatePair(constant(lam), constant(s2), capacity)


# ---------------------------------------------------------------- logistic ODE


def test_deterministic_solution_frozen_constant():
    assert deterministic_solution(K, X0, 0.4, 0.0, 10.0) == pytest.approx(
        171.6972899516428, abs=1e-9
    )
    assert deterministic_solution(K, X0, 0.4, 0.0, 0.0) == X0


def test_deterministic_solution_matches_rk4():
    lam = sinusoid(0.4, 0.3, 1.0)
    t_end, h = 10.0, 1e-3

    def rhs(t, x):
        return lam(t) * x * (K - x) / K

    x, t = X0, 0.0
    for _ in range(int(round(t_end / h))):
        k1 = rhs(t, x)
        k2 = rhs(t + h / 2, x + h / 2 * k1)
        k3 = rhs(t + h / 2, x + h / 2 * k2)
        k4 = rhs(t + h, x + h * k3)
        x += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    assert deterministic_solution(K, X0, lam, 0.0, t_end) == pytest.approx(x, rel=1e-8)


def test_deterministic_solution_vectorized_and_errors():
    ts = np.array([0.0, 1.0, 5.0, 10.0])
    out = deterministic_solution(K, X0, 0.4, 0.0, ts)
    assert out.shape == ts.shape
    assert np.all(np.diff(out) > 0)
    with pytest.raises(ValueError):
        deterministic_solution(K, X0, 0.4, 1.0, 0.5)
    with pytest.raises(ValueError):
        deterministic_solution(K, 0.0, 0.4, 0.0, 1.0)
    with pytest.raises(ValueError):
        deterministic_solution(K, K, 0.4, 0.0, 1.0)


def test_threshold_time_constant_closed_form():
    # doubling from x0=20 to 100 at rate 0.4: ln(9)/0.4
    t_star = threshold_time(K, X0, 0.4, 100.0)
    assert t_star == pytest.approx(2.5 * math.log(9.0), abs=1e-10)
    assert deterministic_solution(K, X0, 0.4, 0.0, t_star) == pytest.approx(100.0, rel=1e-10)


def test_threshold_time_bisection_consistency():
    lam = sinusoid(0.4, 0.3, 1.0)
    t_star = threshold_time(K, X0, lam, 120.0)
    assert deterministic_solution(K, X0, lam, 0.0, t_star) == pytest.approx(120.0, abs=1e-6)
    # nonzero start time shifts the clock
    t_shift = threshold_time(K, X0, constant(0.4), 100.0, t0=3.0)
    assert t_shift == pytest.approx(3.0 + 2.5 * math.log(9.0), abs=1e-10)


def test_threshold_time_errors():
    with pytest.raises(ValueError, match="level"):
        threshold_time(K, X0, 0.4, 10.0)
    with pytest.raises(ValueError, match="level"):
        threshold_time(K, X0, 0.4, K)
    with pytest.raises(ValueError, match="positive"):
        threshold_time(K, X0, -0.1, 100.0)
    # accumulated growth of this schedule is bounded by 0.2, far below the target
    with pytest.raises(ValueError, match="not reached"):
        threshold_time(K, X0, sinusoid(0.0, 0.1, 1.0), 100.0, t_max=1000.0)


def test_threshold_time_search_ends_at_the_knot_span_and_t_max():
    # out of reach inside the knot span: refused as not reached, not as a
    # time outside the tabulated window
    with pytest.raises(ValueError, match=r"not reached within \[0\.0, 20\.0\]"):
        threshold_time(K, X0, tabulated([0.0, 10.0, 20.0], [0.1] * 3), 190.0)
    # the root (ln 9 / 4, about 0.55) lies past t_max < t0 + 1
    fast = tabulated([0.0, 10.0, 20.0], [4.0] * 3)
    assert threshold_time(K, X0, fast, 100.0) == pytest.approx(math.log(9.0) / 4.0, abs=1e-9)
    with pytest.raises(ValueError, match=r"not reached within \[0\.0, 0\.5\]"):
        threshold_time(K, X0, fast, 100.0, t_max=0.5)
    with pytest.raises(ValueError, match="not reached"):
        threshold_time(K, X0, 4.0, 100.0, t_max=0.5)
    # a root between the last doubling point and t_max is still found
    slow = sinusoid(0.4, 0.0, 1.0)
    assert threshold_time(K, X0, slow, 100.0, t_max=6.0) == pytest.approx(2.5 * math.log(9.0), abs=1e-9)


def test_threshold_time_bisection_equals_scipy(monkeypatch):
    # the same bracket handed to scipy's bisect gives the same float
    cases = [
        (sinusoid(0.4, 0.3, 1.0), 120.0),
        (tabulated([0.0, 10.0, 20.0, 30.0], [0.5, 0.1, 0.3, 0.2]), 60.0),
    ]
    ours = [threshold_time(K, X0, lam, level) for lam, level in cases]
    monkeypatch.setattr(model, "_bisect", lambda f, a, b: bisect(f, a, b, xtol=model.BISECT_TIME_TOL))
    theirs = [threshold_time(K, X0, lam, level) for lam, level in cases]
    assert all(type(t) is float for t in ours)
    assert ours == theirs


def test_bisect_returns_floats_for_integer_brackets():
    # an integer bracket end that is itself the root comes back as a float
    for a, b, root in ((0, 2, 2.0), (-3, 0, -3.0), (0, 5, 1.5)):
        t = model._bisect(lambda s, root=root: s - root, a, b)
        assert type(t) is float and t == pytest.approx(root, abs=1e-9)


# ------------------------------------------------------------------ transforms


def test_transform_frozen_value():
    assert x_to_y(100.0, X0, K) == pytest.approx(math.log(9.0), rel=1e-14)
    assert y_to_x(math.log(9.0), X0, K) == pytest.approx(100.0, rel=1e-14)
    assert x_to_y(X0, X0, K) == 0.0


@settings(max_examples=100, deadline=None)
@given(
    cap=st.floats(1e-2, 1e5),
    u0=st.floats(1e-6, 1.0 - 1e-6),
    u=st.floats(1e-6, 1.0 - 1e-6),
)
def test_transform_round_trip(cap, u0, u):
    x0 = u0 * cap
    x = u * cap
    back = y_to_x(x_to_y(x, x0, cap), x0, cap)
    assert back == pytest.approx(x, rel=1e-10)


def test_y_to_x_saturates_to_zero_without_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert y_to_x(-800.0, X0, K) == 0.0
        assert np.array_equal(y_to_x(np.array([-1e4, -800.0]), X0, K), [0.0, 0.0])


def test_transform_rejects_boundary_states():
    for bad in (0.0, K, -1.0, K + 1.0):
        with pytest.raises(ValueError):
            x_to_y(bad, X0, K)
    with pytest.raises(ValueError):
        x_to_y(100.0, 0.0, K)


def test_transform_vectorized():
    xs = np.array([10.0, 50.0, 150.0])
    ys = x_to_y(xs, X0, K)
    assert ys.shape == xs.shape
    assert np.allclose(y_to_x(ys, X0, K), xs, rtol=1e-12)


# ---------------------------------------------------------- state coefficients


def test_infinitesimal_moments_frozen():
    drift, diffusion = infinitesimal_moments(100.0, 0.0, _pair(0.4, 0.1))
    assert drift == pytest.approx(20.0, rel=1e-12)
    assert diffusion == pytest.approx(250.0, rel=1e-12)


def test_infinitesimal_moments_ito_identity():
    # drift == lam * g + (1/4) d(diffusion)/dx with g = x (K - x) / K,
    # checked against a central difference of the diffusion itself
    rng = np.random.default_rng(42)
    for _ in range(100):
        cap = float(rng.uniform(1.0, 500.0))
        x = float(rng.uniform(0.01, 0.99)) * cap
        lam = float(rng.uniform(-0.5, 1.5))
        s2 = float(rng.uniform(0.001, 1.0))
        rates = _pair(lam, s2, cap)
        drift, _ = infinitesimal_moments(x, 0.0, rates)
        h = 1e-5 * cap
        lo = max(0.0, x - h)
        hi = min(cap, x + h)
        d_hi = infinitesimal_moments(hi, 0.0, rates)[1]
        d_lo = infinitesimal_moments(lo, 0.0, rates)[1]
        expected = lam * x * (cap - x) / cap + 0.25 * (d_hi - d_lo) / (hi - lo)
        assert drift == pytest.approx(expected, rel=1e-5, abs=1e-10 * cap)


def test_infinitesimal_moments_zero_noise_reduction():
    drift, diffusion = infinitesimal_moments(100.0, 0.0, _pair(0.4, 0.0))
    assert drift == pytest.approx(0.4 * 100.0 * 100.0 / K, rel=1e-14)
    assert diffusion == 0.0


def test_infinitesimal_moments_boundary_and_domain():
    for x_edge in (0.0, K):
        drift, diffusion = infinitesimal_moments(x_edge, 0.0, _pair(0.4, 0.1))
        assert drift == 0.0
        assert diffusion == 0.0
    with pytest.raises(ValueError):
        infinitesimal_moments(-1.0, 0.0, _pair(0.4, 0.1))
    with pytest.raises(ValueError):
        infinitesimal_moments(K + 1e-9, 0.0, _pair(0.4, 0.1))


def test_infinitesimal_moments_time_dependence():
    rates = RatePair(sinusoid(0.4, 1.0, 1.0), constant(0.1), K)
    d0, _ = infinitesimal_moments(100.0, 0.0, rates)
    d1, _ = infinitesimal_moments(100.0, math.pi / 2, rates)
    assert d1 - d0 == pytest.approx(50.0 * 1.0, rel=1e-12)


# -------------------------------------------------------------- transition law


def test_transition_pdf_normalizes():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        cap = float(rng.uniform(1.0, 500.0))
        x0 = float(rng.uniform(0.02, 0.98)) * cap
        lam = float(rng.uniform(-0.5, 1.5))
        s2 = float(rng.uniform(0.01, 1.0))
        t = float(rng.uniform(0.1, 8.0))
        law = TransitionLaw(_pair(lam, s2, cap), x0, 0.0)
        med = conditional_median(law, t)
        total, _ = quad(lambda x: transition_pdf(law, x, t), 0.0, cap, points=[med], limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_pdf_matches_cdf_derivative():
    law = TransitionLaw(_pair(0.4, 0.1), X0, 0.0)
    t = 5.0
    for x in (40.0, 80.0, 120.0, 160.0):
        h = 1e-4 * x
        fd = (transition_cdf(law, x + h, t) - transition_cdf(law, x - h, t)) / (2 * h)
        assert transition_pdf(law, x, t) == pytest.approx(fd, rel=1e-5)


def test_cdf_monotone_with_correct_limits():
    law = TransitionLaw(_pair(0.4, 0.1), X0, 0.0)
    xs = np.linspace(1e-6 * K, K * (1 - 1e-6), 10_001)
    cdf = transition_cdf(law, xs, 3.0)
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[0] < 1e-10
    assert cdf[-1] > 1.0 - 1e-10


def test_transition_cdf_matches_the_scipy_erf_form():
    law = TransitionLaw(_pair(0.4, 0.1), X0, 0.0)
    states = np.linspace(1.0, K - 1.0, 63)
    for t in (0.5, 3.0, 20.0):
        lam_int, var_int = law.accumulated(t)
        ref = 0.5 * (1.0 + erf((x_to_y(states, X0, K) - lam_int) / math.sqrt(2.0 * var_int)))
        assert np.max(np.abs(transition_cdf(law, states, t) - ref)) <= 1e-15
        scalar = transition_cdf(law, float(states[30]), t)
        assert type(scalar) is float and abs(scalar - ref[30]) <= 1e-15


def test_median_halves_the_law_and_tracks_logistic():
    law = TransitionLaw(_pair(0.4, 0.1), X0, 0.0)
    for t in (0.5, 2.0, 10.0):
        med = conditional_median(law, t)
        assert transition_cdf(law, med, t) == pytest.approx(0.5, abs=1e-10)
        assert med == pytest.approx(deterministic_solution(K, X0, 0.4, 0.0, t), rel=1e-12)


def test_conditional_moment_matches_trapezoid_oracle():
    law = TransitionLaw(_pair(0.4, 0.1), X0, 0.0)
    t = 10.0
    lam_int, var_int = 4.0, 1.0
    z = np.linspace(-10.0, 10.0, 1_000_001)
    weights = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    ratio = (K - X0) / X0
    for m in (1, 2):
        vals = (K / (1.0 + ratio * np.exp(-(lam_int + math.sqrt(var_int) * z)))) ** m
        oracle = np.trapezoid(vals * weights, z)
        assert conditional_moment(law, m, t) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("var_int", [500.0, 1e4, 1e5, 1e6])
def test_conditional_moment_at_large_variance(var_int):
    # sigma2 * t = var_int at t = 10; the logistic knee is far narrower
    # than the Gaussian, so the oracle is a fine trapezoid rule in y
    t = 10.0
    law = TransitionLaw(_pair(0.4, var_int / t), X0, 0.0)
    lam_int, var = law.accumulated(t)
    sd = math.sqrt(var)
    y = np.linspace(lam_int - 12.0 * sd, lam_int + 12.0 * sd, 2_000_001)
    density = np.exp(-0.5 * ((y - lam_int) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    x = K * expit(y - math.log((K - X0) / X0))
    m1 = conditional_moment(law, 1, t)
    m2 = conditional_moment(law, 2, t)
    assert math.isfinite(m1) and math.isfinite(m2)
    assert 0.0 < m1 < K
    assert m2 >= m1 * m1
    assert m1 == pytest.approx(np.trapezoid(x * density, y), rel=1e-8)
    assert m2 == pytest.approx(np.trapezoid(x * x * density, y), rel=1e-8)


@pytest.mark.parametrize("var_int", [1e-6, 1e-2, 1.0, 1e2, 1e4, 1e6])
def test_conditional_moment_symmetric_law_has_mean_half_capacity(var_int):
    # x0 = K/2 with no growth: y is centred at the knee, so X and K - X
    # have the same law and the mean is K/2 at every variance
    law = TransitionLaw(_pair(0.0, var_int), K / 2.0, 0.0)
    assert conditional_moment(law, 1, 1.0) == pytest.approx(K / 2.0, rel=1e-12)


def _split_quad_moment(x0, growth, var_int, m):
    """E[(X/K)^m] by quad over z on [-40, 40], split at the knee and at
    knee +- 1e-4, 1e-3, 1e-2, 1e-1 so that every piece sees a smooth
    integrand.  A rough pass sets the absolute tolerance of the final
    one: pieces far beyond the knee hold ~1e-130 of the mass and cannot
    be had to a relative tolerance."""
    shift = math.log((K - x0) / x0) - growth
    sd = math.sqrt(var_int)
    knee = shift / sd

    def integrand(z):
        a = shift - sd * z
        softplus = max(a, 0.0) + math.log1p(math.exp(-abs(a)))
        return math.exp(-m * softplus - 0.5 * z * z) / math.sqrt(2.0 * math.pi)

    offsets = (-1e-1, -1e-2, -1e-3, -1e-4, 0.0, 1e-4, 1e-3, 1e-2, 1e-1)
    cuts = sorted({-40.0, 40.0, *(knee + d for d in offsets if abs(knee + d) < 40.0)})
    pieces = list(zip(cuts[:-1], cuts[1:]))
    rough = sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-6, limit=200, full_output=1)[0] for a, b in pieces)
    return sum(quad(integrand, a, b, epsabs=1e-15 * rough, epsrel=1e-13, limit=200)[0] for a, b in pieces)


def test_conditional_moment_matches_split_quad_reference_grid():
    grid = list(
        itertools.product(
            (0.01, 1.0, 20.0, 100.0, 199.0),
            (-50.0, -5.0, 0.0, 0.4, 4.0, 50.0),
            10.0 ** np.arange(-14, 7),
            (1, 2, 3),
        )
    )
    # every 5th case: 5 is prime to the 3 orders and the 21 variances,
    # so each order meets each variance, 1e-14 and 1e6 included
    for x0, growth, var_int, m in grid[::5]:
        law = TransitionLaw(_pair(growth, var_int), x0, 0.0)
        reference = K**m * _split_quad_moment(x0, growth, var_int, m)
        assert conditional_moment(law, m, 1.0) == pytest.approx(reference, rel=1e-12), (x0, growth, var_int, m)


def test_conditional_moment_raises_when_the_last_level_does_not_converge(monkeypatch):
    # a variance of 1e-12 puts the knee far outside [-40, 40]: the
    # Gaussian sits mid-segment and the rule needs level 8
    law = TransitionLaw(_pair(0.4, 1e-12), X0, 0.0)
    monkeypatch.setattr(model, "_TS_LAST_LEVEL", 7)
    with pytest.raises(RuntimeError, match="not converged"):
        conditional_moment(law, 1, 5.0)
    monkeypatch.setattr(model, "_TS_LAST_LEVEL", 8)
    assert conditional_moment(law, 1, 5.0) == pytest.approx(deterministic_solution(K, X0, 0.4, 0.0, 5.0), rel=1e-6)


def test_conditional_moment_saturated_law_stays_below_capacity_power():
    law = TransitionLaw(_pair(5.0, 0.1), X0, 0.0)
    for m in (1, 2):
        value = conditional_moment(law, m, 10.0)
        assert value <= K**m
        assert value == pytest.approx(K**m, rel=1e-15)


def test_conditional_moment_frozen_value():
    law = TransitionLaw(_pair(0.4, 0.1), X0, 0.0)
    assert conditional_moment(law, 1, 10.0) == pytest.approx(164.0894220104031, rel=1e-12)


def test_conditional_moment_degenerate_noise_limit():
    law = TransitionLaw(_pair(0.4, 1e-12), X0, 0.0)
    det = deterministic_solution(K, X0, 0.4, 0.0, 5.0)
    for m in (1, 2):
        assert conditional_moment(law, m, 5.0) == pytest.approx(det**m, rel=1e-6)


def test_conditional_moment_ordering():
    law = TransitionLaw(_pair(0.4, 0.1), X0, 0.0)
    m1 = conditional_moment(law, 1, 8.0)
    m2 = conditional_moment(law, 2, 8.0)
    assert m1 < math.sqrt(m2) < K


def test_conditional_moment_rejects_bad_order():
    law = TransitionLaw(_pair(0.4, 0.1), X0, 0.0)
    with pytest.raises(ValueError):
        conditional_moment(law, 0, 1.0)
    with pytest.raises(ValueError):
        conditional_moment(law, 1.5, 1.0)


def test_degenerate_time_errors_carry_the_atom():
    law = TransitionLaw(_pair(0.4, 0.1), X0, 0.0)
    with pytest.raises(DegenerateTimeError) as exc:
        law.accumulated(0.0)
    assert exc.value.point_mass == X0
    assert isinstance(exc.value, ValueError)

    quiet = TransitionLaw(_pair(0.4, 0.0), X0, 0.0)
    with pytest.raises(DegenerateTimeError) as exc:
        transition_pdf(quiet, 100.0, 10.0)
    assert exc.value.point_mass == pytest.approx(
        deterministic_solution(K, X0, 0.4, 0.0, 10.0), rel=1e-12
    )


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda law, t: law.accumulated(t),
        lambda law, t: conditional_moment(law, 1, t),
        lambda law, t: transition_cdf(law, 50.0, t),
        lambda law, t: transition_pdf(law, 50.0, t),
        lambda law, t: conditional_median(law, t),
        lambda law, t: deterministic_solution(K, X0, 0.4, 0.0, [1.0, t]),
    ],
    ids=["accumulated", "conditional-moment", "transition-cdf", "transition-pdf", "conditional-median",
         "deterministic-solution"],
)
def test_transition_law_refuses_a_time_that_is_not_finite(call, t):
    with pytest.raises(ValueError, match="^t must be finite, got "):
        call(TransitionLaw(_pair(0.4, 0.1), X0, 0.0), t)


def test_transition_law_validates_start_state():
    with pytest.raises(ValueError):
        TransitionLaw(_pair(0.4, 0.1), 0.0, 0.0)
    with pytest.raises(ValueError):
        TransitionLaw(_pair(0.4, 0.1), K, 0.0)
