"""NaturalSpline against scipy's natural CubicSpline, bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from sidiff import (
    NaturalSpline,
    cumulative,
    fit_moment_curves,
    sample_lag_cov,
    sample_mean,
    simulate_exact,
    transform_paths,
)
from sidiff import _kernels
from sidiff.experiments import STANDARD_GRID, STANDARD_X0, case_rates
from sidiff.synthetic import measles_like_rates


def _assert_matches_scipy(x, y, t):
    """Coefficients and values of the spline, its derivative and its
    antiderivative equal scipy's exactly, at the times t and, as a
    scalar, at the last knot."""
    ours = NaturalSpline(x, y)
    ref = CubicSpline(x, y, bc_type="natural")
    pairs = ((ours, ref), (ours.derivative(), ref.derivative()), (ours.antiderivative(), ref.antiderivative()))
    for mine, theirs in pairs:
        assert np.array_equal(mine.c, theirs.c)
        assert np.array_equal(mine(t), theirs(t))
        last = mine(x[-1])
        assert last.shape == () and np.array_equal(last, theirs(x[-1]))


def _times(x, rng):
    return np.concatenate((x, rng.uniform(x[0], x[-1], 25)))


@st.composite
def _layouts(draw):
    """Knots of even, uneven and growing spacing, the last with each gap
    more than twice the one before, so that dgtsv interchanges rows."""
    kind = draw(st.sampled_from(["even", "uneven", "growing"]))
    n = draw(st.integers(2, 12 if kind == "growing" else 40))
    start = draw(st.floats(-100.0, 100.0))
    if kind == "even":
        gaps = np.full(n - 1, draw(st.floats(1e-3, 10.0)))
    elif kind == "uneven":
        gaps = np.array(draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1)))
    else:
        ratios = draw(st.lists(st.floats(2.01, 5.0), min_size=n - 2, max_size=n - 2))
        gaps = draw(st.floats(1e-3, 1.0)) * np.cumprod([1.0, *ratios])
    x = start + np.concatenate(([0.0], np.cumsum(gaps)))
    values = st.floats(-1e6, 1e6, allow_subnormal=False)
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return x, y


@settings(max_examples=200, deadline=None)
@given(layout=_layouts(), seed=st.integers(0, 2**32 - 1))
def test_spline_matches_scipy_on_drawn_layouts(layout, seed):
    x, y = layout
    _assert_matches_scipy(x, y, _times(x, np.random.default_rng(seed)))


@settings(max_examples=200, deadline=None)
@given(layout=_layouts())
@example(layout=(np.linspace(0.0, 50.0, 5001), np.sin(np.linspace(0.0, 50.0, 5001))))
@example(layout=(np.array([0.0, 1.0, 3.5, 12.0, 40.0]), np.array([1.0, -2.0, 0.5, 3.0, -1.0])))
def test_kernel_solve_gives_the_bytes_of_the_python_replay(built_kernels, layout):
    # the last example interchanges every row
    x, y = layout
    kernel = NaturalSpline(x, y)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_kernels, "library", lambda: None)
        replay = NaturalSpline(x, y)
    assert kernel.c.tobytes() == replay.c.tobytes()


@pytest.mark.parametrize("x", [[0.0, 1.0], [0.0, 1.0, 3.5], [-2.0, 0.5, 0.75]])
def test_spline_matches_scipy_on_two_and_three_knots(x):
    x = np.array(x)
    rng = np.random.default_rng(11)
    _assert_matches_scipy(x, rng.normal(size=x.size), _times(x, rng))


def _interchanges(x):
    """dgtsv's pivot choice on the spline system of the knots x, worked out
    from the gaps alone: at each column, whether the next row's entry
    there is larger in magnitude than the diagonal of the row eliminated
    so far, so that the two rows trade places."""
    dx = np.diff(x).tolist()
    rows = [(2 * (left + right), right, left) for left, right in zip(dx, dx[1:])] + [(2 * dx[-1], dx[-1], 0.0)]
    diag, upper = 2 * dx[0], dx[0]  # the pivot row so far: its entries in columns i and i + 1
    swaps = []
    for next_diag, below, next_upper in rows:  # the next row's entries in columns i + 1, i and i + 2
        swaps.append(abs(diag) < abs(below))
        if swaps[-1]:
            fact = diag / below
            diag, upper = upper - fact * next_diag, -fact * next_upper
        else:
            diag, upper = next_diag - below / diag * upper, next_upper
    return swaps


def test_growing_gaps_interchange_rows():
    # the drawn "growing" layouts exercise dgtsv's row interchange
    assert _interchanges(np.array([0.0, 1.0, 3.5, 12.0, 40.0])) == [True] * 4
    assert not any(_interchanges(np.linspace(0.0, 1.0, 9)))


@pytest.mark.parametrize("stride", [1, 10])
def test_moment_curves_match_scipy_on_the_case_a_grid(stride):
    grid = STANDARD_GRID
    ypaths = transform_paths(simulate_exact(case_rates("a"), STANDARD_X0, grid, 10, 5))
    mu = sample_mean(ypaths)
    nu = sample_lag_cov(ypaths, mu)
    mean_curve, cov_curve = fit_moment_curves(mu, nu, grid, stride=stride)
    times = grid.times
    rng = np.random.default_rng(stride)
    for curve, values in ((mean_curve, mu), (cov_curve, nu[1:])):
        knots = np.searchsorted(times, curve.x)
        assert np.array_equal(times[knots], curve.x)
        _assert_matches_scipy(curve.x, values[knots], np.concatenate((times, _times(curve.x, rng))))


def test_tabulated_rates_match_scipy():
    rates = measles_like_rates()
    times = np.linspace(0.0, 545.0, 546)
    for f in (rates.transmission, rates.noise):
        knots, values = np.array(f.params["times"]), np.array(f.params["values"])
        assert knots.size == 40
        _assert_matches_scipy(knots, values, _times(knots, np.random.default_rng(3)))
        ref = CubicSpline(knots, values, bc_type="natural")
        assert np.array_equal(f(times), ref(times))
        assert np.array_equal(cumulative(f, times), ref.antiderivative()(times))


def test_repeated_fits_and_evaluations_reuse_nothing_stale():
    # a fit keeps nothing between calls, so a new layout never sees
    # another's values
    x = np.linspace(0.0, 1.0, 6)
    t = np.linspace(0.0, 1.0, 11)
    for shift in (0.0, 0.5, 0.0):
        for y in (np.sin(x), np.cos(x)):
            _assert_matches_scipy(x + shift, y, t + shift)
            _assert_matches_scipy(x + shift, y, t[::-1] + shift)


def test_scalar_and_array_times_give_the_same_values():
    # a bisection asks for one scalar time at a time
    spline = NaturalSpline(np.linspace(0.0, 1.0, 6), np.arange(6.0))
    values = [spline(t) for t in np.linspace(0.05, 0.95, 19)]
    assert all(value.shape == () for value in values)
    assert np.array_equal(values, spline(np.linspace(0.05, 0.95, 19)))


def test_spline_keeps_read_only_knots_and_refuses_bad_input():
    x = np.array([0.0, 1.0, 2.0])
    spline = NaturalSpline(x, [0.0, 1.0, 0.0])
    x[1] = 5.0  # the spline copied its knots
    assert np.array_equal(spline.x, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        spline.x[1] = 5.0
    with pytest.raises(ValueError, match="strictly increasing"):
        NaturalSpline([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        NaturalSpline([0.0, 1.0, 2.0], [0.0, np.nan, 2.0])
    with pytest.raises(ValueError, match="one length >= 2"):
        NaturalSpline([0.0], [1.0])
    with pytest.raises(ValueError, match="one length >= 2"):
        NaturalSpline([0.0, 1.0, 2.0], [0.0, 1.0])
