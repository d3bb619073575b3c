import math

import numpy as np
import pytest
from scipy.stats import anderson

from sidiff import (
    PathSet,
    RatePair,
    TimeGrid,
    constant,
    derive_path_seed,
    deterministic_solution,
    simulate_em,
    simulate_exact,
    x_to_y,
)

K = 200.0
PAIR = RatePair(constant(0.4), constant(0.1), K)
ZERO_NOISE = RatePair(constant(0.4), constant(0.0), K)


# -------------------------------------------------------------------- TimeGrid


def test_time_grid_basics():
    g = TimeGrid(1.0, 0.25, 5)
    assert np.allclose(g.times, [1.0, 1.25, 1.5, 1.75, 2.0])
    assert g.end == 2.0


def test_time_grid_from_span():
    g = TimeGrid.from_span(0.0, 50.0, 0.01)
    assert g.n == 5001
    assert g.end == pytest.approx(50.0)
    with pytest.raises(ValueError):
        TimeGrid.from_span(0.0, 1.0, 0.3)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.1, 1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, -0.1, 10)


@pytest.mark.parametrize(
    "t0, delta, n",
    [
        (0.0, 0.1, 5.5),
        (0.0, 0.1, 5.0),
        (0.0, 0.1, True),
        (math.nan, 0.1, 5),
        (math.inf, 0.1, 5),
        (0.0, math.inf, 5),
        (0.0, math.nan, 5),
    ],
)
def test_time_grid_rejects_malformed_fields(t0, delta, n):
    with pytest.raises(ValueError):
        TimeGrid(t0, delta, n)


def test_time_grid_accepts_numpy_scalars():
    g = TimeGrid(np.float64(0.5), np.float64(0.25), np.int64(3))
    assert np.allclose(g.times, [0.5, 0.75, 1.0])


# ------------------------------------------------------------------- seed plan


def test_seed_derivation_is_stable():
    a = derive_path_seed(5, 3, 7).generate_state(4)
    b = derive_path_seed(5, 3, 7).generate_state(4)
    assert tuple(a) == tuple(b)


def test_seed_derivation_is_injective_over_a_block():
    states = {
        tuple(derive_path_seed(123, r, p).generate_state(4))
        for r in range(200)
        for p in range(200)
    }
    assert len(states) == 200 * 200


def test_seed_derivation_validation():
    with pytest.raises(ValueError):
        derive_path_seed(-1, 0, 0)
    with pytest.raises(ValueError):
        derive_path_seed(0, -2, 0)
    with pytest.raises(ValueError):
        derive_path_seed(0.5, 0, 0)


# ------------------------------------------------------------- exact simulator


def test_exact_marginal_moments():
    # transformed endpoint is Gaussian(0.4, 0.1) after one unit of time
    ps = simulate_exact(PAIR, 100.0, TimeGrid(0.0, 1.0, 2), 20_000, 606)
    y = x_to_y(ps.values[:, 1], 100.0, K)
    d = y.size
    z = (y.mean() - 0.4) / math.sqrt(0.1 / d)
    assert abs(z) < 3.0
    assert abs(y.var(ddof=1) / 0.1 - 1.0) < 3.0 * math.sqrt(2.0 / (d - 1))


def test_exact_covariance_structure():
    # Cov(y_s, y_t) = V(s) for s < t: increments are independent
    grid = TimeGrid(0.0, 0.5, 11)
    ps = simulate_exact(PAIR, 20.0, grid, 10_000, 303)
    y = x_to_y(ps.values, 20.0, K)
    d = y.shape[0]
    for j, l in [(1, 3), (2, 5), (4, 7), (6, 9), (8, 10)]:
        v_s = 0.1 * grid.times[j]
        v_t = 0.1 * grid.times[l]
        cj = y[:, j] - y[:, j].mean()
        cl = y[:, l] - y[:, l].mean()
        c_hat = float(cj @ cl) / (d - 1)
        se = math.sqrt((v_s * v_t + v_s * v_s) / (d - 1))
        assert abs(c_hat - v_s) < 3.0 * se


def test_exact_increments_pass_normality():
    grid = TimeGrid(0.0, 0.5, 11)
    ps = simulate_exact(PAIR, 20.0, grid, 10_000, 303)
    y = x_to_y(ps.values[:200, :6], 20.0, K)
    inc = np.diff(y, axis=1)
    std = ((inc - 0.4 * 0.5) / math.sqrt(0.1 * 0.5)).ravel()
    res = anderson(std, dist="norm")
    assert res.statistic < res.critical_values[4]  # 1% level


def test_exact_paths_stay_inside_the_interval():
    ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 201), 100, 7)
    ps.validate()
    assert ps.values.min() > 0.0
    assert ps.values.max() < K
    assert np.all(ps.values[:, 0] == 20.0)


def test_exact_zero_noise_reproduces_the_logistic_curve():
    ps = simulate_exact(ZERO_NOISE, 20.0, TimeGrid(0.0, 0.1, 101), 4, 17,
                        allow_zero_noise=True)
    det = deterministic_solution(K, 20.0, 0.4, 0.0, ps.grid.times)
    assert np.max(np.abs(ps.values - det) / det) < 1e-9


def test_exact_boundary_rounding_is_fixed_and_counted():
    # fast growth saturates the inverse transform in double precision
    hot = RatePair(constant(5.0), constant(0.1), K)
    ps = simulate_exact(hot, 20.0, TimeGrid(0.0, 0.5, 21), 50, 1234)
    assert ps.meta["boundary_rounding_fixes"] > 0
    ps.validate()
    assert ps.values.max() < K

    calm = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 11), 10, 7)
    assert calm.meta.get("boundary_rounding_fixes", 0) == 0


# ------------------------------------------------------------------ EM scheme


def test_em_zero_noise_tracks_the_logistic_curve():
    ps = simulate_em(ZERO_NOISE, 20.0, TimeGrid(0.0, 0.01, 1001), 3, 5,
                     refine=10, allow_zero_noise=True)
    det = deterministic_solution(K, 20.0, 0.4, 0.0, 10.0)
    assert abs(ps.values[0, -1] - det) < 0.01
    # no noise: all paths identical
    assert np.all(ps.values == ps.values[0])


def test_em_drift_corrections_differ_as_designed():
    # the state-dependent correction keeps the transformed drift at the
    # transmission level; the constant variant overshoots by s2 x / K
    grid = TimeGrid(0.0, 0.01, 501)
    st = simulate_em(PAIR, 20.0, grid, 2000, 404, drift_correction="state")
    ct = simulate_em(PAIR, 20.0, grid, 2000, 404, drift_correction="constant")
    se = math.sqrt(0.1 * 5.0 / 2000)
    z_state = (x_to_y(st.values[:, -1], 20.0, K).mean() - 2.0) / se
    z_const = (x_to_y(ct.values[:, -1], 20.0, K).mean() - 2.0) / se
    assert abs(z_state) < 3.0
    assert z_const > 5.0
    assert st.meta["drift_correction"] == "state"
    assert ct.meta["drift_correction"] == "constant"


def test_em_clamp_counter():
    wild = RatePair(constant(0.0), constant(25.0), K)
    ps = simulate_em(wild, 100.0, TimeGrid(0.0, 0.1, 51), 20, 99)
    assert ps.meta["clamp_count"] > 0
    ps.validate()

    calm = simulate_em(PAIR, 20.0, TimeGrid(0.0, 0.1, 11), 10, 7)
    assert calm.meta["clamp_count"] == 0


def test_em_records_refine():
    ps = simulate_em(PAIR, 20.0, TimeGrid(0.0, 0.1, 6), 2, 3, refine=4)
    assert ps.meta["refine"] == 4
    assert ps.values.shape == (2, 6)


# --------------------------------------------------------------- reproducibility


def test_same_seed_same_paths():
    a = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 51), 20, 42)
    b = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 51), 20, 42)
    assert np.array_equal(a.values, b.values)
    c = simulate_em(PAIR, 20.0, TimeGrid(0.0, 0.1, 51), 20, 42, refine=2)
    d = simulate_em(PAIR, 20.0, TimeGrid(0.0, 0.1, 51), 20, 42, refine=2)
    assert np.array_equal(c.values, d.values)


def test_path_count_does_not_shift_existing_paths():
    big = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 51), 50, 42)
    small = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 51), 5, 42)
    assert np.array_equal(big.values[:5], small.values)


def test_replicate_index_changes_the_draws():
    a = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 51), 10, 42, replicate=0)
    b = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 51), 10, 42, replicate=1)
    assert not np.array_equal(a.values, b.values)


def test_seed_provenance_recorded():
    ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 11), 3, 42, replicate=6)
    assert ps.seed["master_seed"] == 42
    assert ps.seed["replicate"] == 6


# ------------------------------------------------------------------ validation


def test_simulate_validation_errors():
    grid = TimeGrid(0.0, 0.1, 11)
    with pytest.raises(ValueError):
        simulate_exact(PAIR, 0.0, grid, 10, 1)
    with pytest.raises(ValueError):
        simulate_exact(PAIR, K, grid, 10, 1)
    with pytest.raises(ValueError):
        simulate_exact(PAIR, 20.0, grid, 0, 1)
    with pytest.raises(ValueError):
        simulate_em(PAIR, 20.0, grid, 10, 1, refine=0)
    with pytest.raises(ValueError):
        simulate_em(PAIR, 20.0, grid, 10, 1, drift_correction="midpoint")


def test_zero_noise_requires_opt_in():
    grid = TimeGrid(0.0, 0.1, 11)
    with pytest.raises(ValueError):
        simulate_exact(ZERO_NOISE, 20.0, grid, 5, 1)
    with pytest.raises(ValueError):
        simulate_em(ZERO_NOISE, 20.0, grid, 5, 1)
    negative = RatePair(constant(0.4), constant(-0.1), K)
    with pytest.raises(ValueError):
        simulate_exact(negative, 20.0, grid, 5, 1, allow_zero_noise=True)


def test_pathset_validate_branches():
    grid = TimeGrid(0.0, 0.5, 3)
    good = PathSet(grid, np.array([[20.0, 30.0, 40.0]]), "X", K)
    good.validate()
    with pytest.raises(ValueError, match="space"):
        PathSet(grid, np.array([[20.0, 30.0, 40.0]]), "Z", K).validate()
    with pytest.raises(ValueError, match="shape"):
        PathSet(grid, np.array([[20.0, 30.0]]), "X", K).validate()
    with pytest.raises(ValueError, match="inside"):
        PathSet(grid, np.array([[20.0, 30.0, K]]), "X", K).validate()
    with pytest.raises(ValueError, match="finite"):
        PathSet(grid, np.array([[20.0, math.nan, 40.0]]), "X", K).validate()
    with pytest.raises(ValueError, match="zero"):
        PathSet(grid, np.array([[0.1, 0.2, 0.3]]), "Y", K).validate()
