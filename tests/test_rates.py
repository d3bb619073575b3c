import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sidiff import (
    RateFunction,
    RatePair,
    check_window,
    constant,
    cumulative,
    exp_saturating,
    increment_table,
    integrate,
    pair_from_dict,
    pair_to_dict,
    rate_from_dict,
    rate_to_dict,
    sinusoid,
    tabulated,
)
from sidiff.synthetic import measles_like_rates


def test_constant_evaluate_and_integral():
    f = constant(0.3)
    assert f(5.0) == 0.3
    assert np.all(f(np.linspace(-2, 7, 19)) == 0.3)
    assert integrate(f, 1.0, 4.5) == pytest.approx(0.3 * 3.5, rel=1e-14)


def test_sinusoid_evaluate():
    f = sinusoid(0.4, 1.0, 1.0)
    assert f(0.0) == pytest.approx(0.4, abs=1e-15)
    assert f(math.pi / 2) == pytest.approx(1.4, rel=1e-14)


def test_sinusoid_full_period_integral():
    # the oscillating part cancels over a whole period
    f = sinusoid(0.4, 1.0, 1.0)
    assert integrate(f, 0.0, 2 * math.pi) == pytest.approx(0.8 * math.pi, rel=1e-12)


def test_exp_saturating_limits():
    f = exp_saturating(0.1, 0.01, 2.0)
    assert f(0.0) == pytest.approx(0.1, rel=1e-14)
    assert f(1000.0) == pytest.approx(0.11, rel=1e-12)


def test_exp_saturating_integral_vs_composite_rule():
    # composite 1-4-2-...-4-1 rule on a million panels
    f = exp_saturating(0.1, 0.01, 2.0)
    n = 1_000_000
    t = np.linspace(0.0, 5.0, n + 1)
    y = f(t)
    h = 5.0 / n
    composite = h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-1:2].sum())
    assert integrate(f, 0.0, 5.0) == pytest.approx(composite, rel=1e-9)


def test_closed_forms_match_adaptive_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(100):
        kind = rng.integers(0, 3)
        if kind == 0:
            f = constant(float(rng.uniform(-2, 2)))
        elif kind == 1:
            f = sinusoid(
                float(rng.uniform(-2, 2)),
                float(rng.uniform(0, 3)),
                float(rng.uniform(0.1, 5)),
                float(rng.uniform(0, 2 * math.pi)),
            )
        else:
            # keep this kind on t >= 0: the squared exponential term blows
            # up at negative times and swamps absolute-tolerance quadrature
            f = exp_saturating(
                float(rng.uniform(-2, 2)),
                float(rng.uniform(0, 2)),
                float(rng.uniform(0.05, 4)),
            )
        a = float(rng.uniform(-5, 5)) if f.kind != "exp_saturating" else float(rng.uniform(0, 5))
        b = a + float(rng.uniform(0.1, 10))
        exact = integrate(f, a, b)
        numeric, _ = quad(f, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert exact == pytest.approx(numeric, rel=1e-9, abs=1e-9)


_times = st.floats(-5.0, 5.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(offset=st.floats(-2.0, 2.0), amplitude=st.floats(0.0, 2.0),
       omega=st.floats(0.1, 4.0), a=_times, b=_times, c=_times)
def test_integral_additivity(offset, amplitude, omega, a, b, c):
    f = sinusoid(offset, amplitude, omega)
    lo, mid, hi = sorted((a, b, c))
    whole = integrate(f, lo, hi)
    split = integrate(f, lo, mid) + integrate(f, mid, hi)
    assert whole == pytest.approx(split, abs=1e-9 * max(1.0, abs(whole)) + 1e-12)


@settings(max_examples=60, deadline=None)
@given(offset=st.floats(0.5, 2.0), amplitude=st.floats(0.0, 0.5),
       a=_times, b=_times, c=_times)
def test_nonnegative_rate_has_monotone_integral(offset, amplitude, a, b, c):
    # offset >= amplitude keeps the rate nonnegative everywhere
    f = sinusoid(offset, amplitude, 1.0)
    lo, mid, hi = sorted((a, b, c))
    assert integrate(f, lo, mid) <= integrate(f, lo, hi) + 1e-12


def test_tabulated_interpolates_knots():
    knots = np.linspace(0.0, 10.0, 9)
    vals = np.sin(knots) + 1.5
    f = tabulated(knots, vals)
    for t, v in zip(knots, vals):
        assert f(float(t)) == pytest.approx(v, rel=1e-12)


def test_tabulated_affine_data_integrates_exactly():
    # a natural cubic spline through affine data is that affine function
    f = tabulated([0.0, 4.0, 10.0], [0.0, 8.0, 20.0])
    assert integrate(f, 0.0, 10.0) == pytest.approx(100.0, rel=1e-8)
    assert f(3.0) == pytest.approx(6.0, rel=1e-10)


def test_tabulated_outside_window_raises():
    f = tabulated([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="tabulated window"):
        f(2.5)
    with pytest.raises(ValueError, match="tabulated window"):
        integrate(f, -1.0, 1.0)
    for call in (
        lambda: integrate(f, 0.5, 2.5),
        lambda: increment_table(f, [0.0, 1.0, 2.0, 3.0]),
        lambda: cumulative(f, [1.0, 2.1]),
    ):
        with pytest.raises(ValueError, match="tabulated window"):
            call()
    assert f(2.0) == pytest.approx(1.0)
    # round-off on the end knots is tolerated, as for evaluate
    assert integrate(f, 0.0, 2.0 + 1e-12) == pytest.approx(2.0, rel=1e-11)


def test_tabulated_integrals_match_quadrature():
    rng = np.random.default_rng(3)
    knots = np.sort(np.concatenate([[0.0, 10.0], rng.uniform(0.0, 10.0, 10)]))
    f = tabulated(knots, rng.uniform(-1.0, 2.0, knots.size))
    # an irregular grid whose steps straddle knots
    times = np.sort(np.concatenate([[0.0, 10.0], rng.uniform(0.0, 10.0, 40)]))
    inc = increment_table(f, times)
    for j, (a, b) in enumerate(zip(times[:-1], times[1:])):
        inside = knots[(knots > a) & (knots < b)]
        numeric, _ = quad(f, a, b, points=inside if inside.size else None, epsabs=1e-13, epsrel=1e-12)
        assert inc[j] == pytest.approx(numeric, rel=1e-9, abs=1e-12)
    whole, _ = quad(f, 0.0, 10.0, points=knots[1:-1], epsabs=1e-13, epsrel=1e-12)
    assert integrate(f, 0.0, 10.0) == pytest.approx(whole, rel=1e-9, abs=1e-12)
    assert inc.sum() == pytest.approx(whole, rel=1e-9, abs=1e-12)


def test_synthetic_increment_tables_match_quadrature():
    rates = measles_like_rates()
    times = np.arange(546.0)
    for f in (rates.transmission, rates.noise):
        inc = increment_table(f, times)
        numeric = [quad(f, a, a + 1.0, epsabs=1e-15, epsrel=1e-13)[0] for a in times[:-1]]
        np.testing.assert_allclose(inc, numeric, rtol=0.0, atol=1e-13)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        tabulated([0.0], [1.0])
    with pytest.raises(ValueError):
        tabulated([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        tabulated([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        tabulated([0.0, 1.0, 2.0], [1.0, math.nan, 3.0])


def test_rate_function_param_validation():
    with pytest.raises(ValueError, match="unknown rate kind"):
        RateFunction("quadratic", {"value": 1.0})
    with pytest.raises(ValueError, match="missing params"):
        RateFunction("sinusoid", {"offset": 0.4})
    with pytest.raises(ValueError, match="finite"):
        constant(math.inf)


def test_degenerate_parameter_branches():
    still = sinusoid(0.7, 0.2, 0.0, math.pi / 2)
    assert integrate(still, 1.0, 3.0) == pytest.approx(1.8, rel=1e-12)
    flat = exp_saturating(0.3, 0.5, 0.0)
    assert flat(10.0) == pytest.approx(0.3, rel=1e-14)
    assert integrate(flat, 0.0, 4.0) == pytest.approx(1.2, rel=1e-12)


def test_integrate_argument_order():
    f = sinusoid(0.4, 1.0, 1.0)
    assert integrate(f, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        integrate(f, 3.0, 1.0)


def test_json_round_trip_all_kinds():
    kinds = [
        constant(0.25),
        sinusoid(0.4, 1.0, 1.0, 0.3),
        exp_saturating(0.1, 0.01, 2.0),
        tabulated([0.0, 1.0, 2.0, 3.0], [0.1, 0.4, 0.2, 0.5]),
    ]
    ts = np.linspace(0.0, 3.0, 13)
    for f in kinds:
        g = rate_from_dict(json.loads(json.dumps(rate_to_dict(f))))
        assert np.allclose(g(ts), f(ts), rtol=1e-13, atol=0)


def test_rate_from_dict_defaults_and_errors():
    g = rate_from_dict(
        {"kind": "sinusoid", "params": {"offset": 0.4, "amplitude": 1.0, "omega": 1.0}}
    )
    assert g.params["phase"] == 0.0
    assert g(0.0) == pytest.approx(0.4, abs=1e-15)
    with pytest.raises(ValueError, match="unknown rate kind"):
        rate_from_dict({"kind": "quadratic", "params": {"value": 1.0}})
    with pytest.raises(ValueError, match="omega"):
        rate_from_dict({"kind": "sinusoid", "params": {"offset": 0.4, "amplitude": 1.0}})
    with pytest.raises(ValueError, match="descriptor"):
        rate_from_dict({"offset": 1.0})


def test_unknown_param_and_descriptor_keys_are_refused():
    with pytest.raises(ValueError, match="unknown params.*'phse'"):
        rate_from_dict(
            {"kind": "sinusoid", "params": {"offset": 0.4, "amplitude": 1.0, "omega": 1.0, "phse": 1.5}}
        )
    with pytest.raises(ValueError, match="unknown params.*'scale'"):
        RateFunction("constant", {"value": 0.4, "scale": 2.0})
    with pytest.raises(ValueError, match="descriptor"):
        rate_from_dict({"kind": "constant", "params": {"value": 0.4}, "label": "beta"})


def test_rate_numbers_refuse_bools_strings_and_huge_ints():
    for make in (
        lambda: RateFunction("constant", {"value": True}),
        lambda: RateFunction("constant", {"value": "0.4"}),
        lambda: constant(True),
        lambda: constant("0.4"),
        lambda: sinusoid(0.4, 1.0, 1.0, phase="0"),
        lambda: tabulated(["0", "1"], [0.1, 0.2]),
        lambda: tabulated([0.0, 1.0], [0.1, False]),
        lambda: tabulated("01", [0.1, 0.2]),
        # JSON reads an integer literal beyond the float range as an int
        lambda: rate_from_dict(json.loads('{"kind": "constant", "params": {"value": 1%s}}' % ("0" * 400))),
        lambda: RatePair(constant(0.4), constant(0.1), True),
    ):
        with pytest.raises(ValueError, match="must be"):
            make()
    # numpy scalars and arrays are numbers, stored as plain floats
    f = constant(np.float32(0.5))
    assert type(f.params["value"]) is float and f.params["value"] == 0.5
    g = tabulated(np.arange(3), np.array([0.1, 0.2, 0.3]))
    assert g.params["times"] == (0.0, 1.0, 2.0)
    assert all(type(v) is float for v in g.params["values"])
    with pytest.raises(ValueError, match="'times'"):
        tabulated(np.zeros((2, 2)), [0.1, 0.2])


def test_pair_from_dict_round_trip_and_capacity_rule():
    pair = RatePair(sinusoid(0.4, 1.0, 1.0, 0.3), constant(0.1), 200)
    back = pair_from_dict(json.loads(json.dumps(pair_to_dict(pair))))
    assert pair_to_dict(back) == pair_to_dict(pair)
    assert type(back.capacity) is float
    for capacity in (True, "200", math.inf, -1.0):
        with pytest.raises(ValueError, match="capacity"):
            pair_from_dict({**pair_to_dict(pair), "capacity": capacity})


def test_increment_table_sums_to_window_integral():
    f = sinusoid(0.4, 1.0, 1.0)
    times = np.arange(0.0, 3.01, 0.3)
    inc = increment_table(f, times)
    assert inc.shape == (len(times) - 1,)
    assert inc.sum() == pytest.approx(integrate(f, times[0], times[-1]), rel=1e-10)


def test_increment_table_validation():
    f = constant(1.0)
    with pytest.raises(ValueError):
        increment_table(f, [2.0])
    with pytest.raises(ValueError):
        increment_table(f, [0.0, 1.0, 0.5])


def test_rate_pair_validation():
    with pytest.raises(ValueError, match="capacity"):
        RatePair(constant(0.4), constant(0.1), 0.0)
    with pytest.raises(ValueError, match="capacity"):
        RatePair(constant(0.4), constant(0.1), -5.0)
    pair = RatePair(constant(0.4), constant(0.1), 200.0)
    assert pair.capacity == 200.0


def test_validate_window_noise_sign():
    ok = RatePair(sinusoid(0.4, 1.0, 1.0), constant(0.1), 200.0)
    ok.validate_window(0.0, 50.0, 100)

    negative = RatePair(constant(0.4), constant(-0.1), 200.0)
    with pytest.raises(ValueError, match="positive"):
        negative.validate_window(0.0, 1.0, 10)

    zero = RatePair(constant(0.4), constant(0.0), 200.0)
    with pytest.raises(ValueError, match="positive"):
        zero.validate_window(0.0, 1.0, 10)

    dips = RatePair(constant(0.4), sinusoid(0.05, 0.1, 1.0), 200.0)
    with pytest.raises(ValueError):
        dips.validate_window(0.0, 10.0, 100)


def test_check_window_bounds():
    f = sinusoid(0.0, 1.0, 1.0)
    check_window(f, 0.0, 10.0, 100)
    with pytest.raises(ValueError, match="positive"):
        check_window(f, 0.0, 10.0, 100, positive=True)
    with pytest.raises(ValueError):
        check_window(f, 1.0, 0.0, 10)

