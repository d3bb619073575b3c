import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import anderson

from sidiff import (
    PathSet,
    RatePair,
    TimeGrid,
    constant,
    derive_path_seed,
    deterministic_solution,
    evaluate,
    increment_table,
    simulate_em,
    simulate_exact,
    sinusoid,
    x_to_y,
    y_to_x,
)
import sidiff.simulate as simulate
from sidiff import _kernels
from sidiff.experiments import case_rates
from sidiff.model import CLIP_EPS
from sidiff.simulate import DRIFT_CORRECTIONS, EM_MAX_CAPACITY, EM_NOISE_BLOCK

K = 200.0
PAIR = RatePair(constant(0.4), constant(0.1), K)
ZERO_NOISE = RatePair(constant(0.4), constant(0.0), K)
# zero noise is refused; deterministic-limit checks use noise this small
TINY_NOISE = RatePair(constant(0.4), constant(1e-30), K)


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
    assert anderson(std, dist="norm", method="interpolate").pvalue > 0.01


def test_exact_paths_stay_inside_the_interval():
    ps = simulate_exact(PAIR, 20.0, TimeGrid(0.0, 0.1, 201), 100, 7)
    ps.validate()
    assert ps.values.min() > 0.0
    assert ps.values.max() < K
    assert np.all(ps.values[:, 0] == 20.0)


def test_exact_zero_noise_reproduces_the_logistic_curve():
    ps = simulate_exact(TINY_NOISE, 20.0, TimeGrid(0.0, 0.1, 101), 4, 17)
    det = deterministic_solution(K, 20.0, 0.4, 0.0, ps.grid.times)
    assert np.max(np.abs(ps.values - det) / det) < 1e-9


@pytest.mark.parametrize(
    "rates, grid",
    [
        (RatePair(sinusoid(0.4, 1.0, 1.0), constant(0.1), K), TimeGrid(0.0, 0.05, 1001)),
        (RatePair(constant(5.0), constant(0.1), K), TimeGrid(0.0, 0.5, 21)),  # rounds onto K
    ],
)
def test_exact_paths_match_the_per_path_reference(rates, grid):
    # one path at a time, mapped to X on its own: the sampler's reference
    ps = simulate_exact(rates, 20.0, grid, 30, 1234, replicate=2)
    mean_inc = increment_table(rates.transmission, grid)
    sd_inc = np.sqrt(increment_table(rates.noise, grid))
    for i in range(30):
        z = np.random.default_rng(derive_path_seed(1234, 2, i)).standard_normal(grid.n - 1)
        y = np.concatenate([[0.0], np.cumsum(mean_inc + sd_inc * z)])
        x = np.clip(y_to_x(y, 20.0, K), np.nextafter(0.0, K), np.nextafter(K, 0.0))
        assert np.array_equal(ps.values[i], x)


class _SignedZeroDraws:
    """A stand-in for a path's numpy Generator: its standard normal draws,
    with those of the first `zeros` steps replaced by -0.0."""

    def __init__(self, seed, zeros):
        self.rng, self.zeros = np.random.default_rng(seed), zeros

    def standard_normal(self, out):
        self.rng.standard_normal(out=out)
        out[: self.zeros] = -0.0


@settings(max_examples=60, deadline=None)
@given(
    n_paths=st.integers(1, 9),
    n=st.integers(2, 300),
    case=st.sampled_from("abc"),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.integers(0, 3),
)
@example(n_paths=5, n=2, case="a", seed=0, zeros=1)
def test_exact_kernel_gives_the_bytes_of_the_numpy_pass(n_paths, n, case, seed, zeros):
    # zeros > 0 makes the first steps' increments exactly -0.0: -0.0 draws
    # times sd, plus a transmission integral of -0.0; a running sum that
    # starts from 0.0 + increment would turn them into +0.0
    rates, grid = case_rates(case), TimeGrid(0.0, 5.0 / (n - 1), n)
    real_table = simulate.increment_table

    def table(f, grid):
        inc = real_table(f, grid)
        if f is rates.transmission:
            inc[:zeros] = -0.0
        return inc

    def run():
        return next(simulate._exact_replicates(rates, 20.0, grid, n_paths, seed, [2])).values

    runs = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulate, "increment_table", table)
        m.setattr(simulate, "default_rng", lambda key: _SignedZeroDraws(key, zeros))
        if _kernels.library() is not None:
            runs.append(run())
        m.setattr(_kernels, "library", lambda: None)
        runs.append(run())
    assert all(run.tobytes() == runs[-1].tobytes() for run in runs)
    y = runs[-1]
    assert y.shape == (n_paths, n) and not np.signbit(y[:, 0]).any() and (y[:, 0] == 0.0).all()
    leading = y[:, 1 : 1 + zeros]
    assert (leading == 0.0).all() and np.signbit(leading).all()


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
    ps = simulate_em(TINY_NOISE, 20.0, TimeGrid(0.0, 0.01, 1001), 3, 5, refine=10)
    det = deterministic_solution(K, 20.0, 0.4, 0.0, 10.0)
    assert abs(ps.values[0, -1] - det) < 0.01
    # next to no noise: the paths coincide up to rounding
    assert np.ptp(ps.values, axis=0).max() < 1e-12


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


def test_em_clamp_counter(kernel_states):
    for _ in kernel_states:
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


def _reference_em(rates, x0, grid, n_paths, master_seed, refine, replicate, drift_correction):
    """Euler-Maruyama as one full-length draw per path and one loop step per
    internal step, the form the batched kernel must reproduce bit for bit."""
    k = rates.capacity
    h = grid.delta / refine
    total_steps = (grid.n - 1) * refine
    t_left = grid.t0 + h * np.arange(total_steps)
    lam_vals = np.asarray(evaluate(rates.transmission, t_left), dtype=float)
    s2_vals = np.asarray(evaluate(rates.noise, t_left), dtype=float)
    noise = np.array([
        np.random.default_rng(derive_path_seed(master_seed, replicate, i)).standard_normal(total_steps)
        for i in range(n_paths)
    ])
    lo, hi = 1e-9 * k, (1.0 - 1e-9) * k
    x = np.full(n_paths, float(x0))
    values = np.empty((n_paths, grid.n))
    values[:, 0] = x
    clamp_count = 0
    for step in range(total_steps):
        s2 = s2_vals[step]
        logistic = x * (k - x) / k
        if drift_correction == "state":
            drift = logistic * (lam_vals[step] + s2 * (k - 2.0 * x) / (2.0 * k))
        else:
            drift = logistic * (lam_vals[step] + 0.5 * s2)
        x = x + drift * h + np.sqrt(s2) * logistic * np.sqrt(h) * noise[:, step]
        outside = (x < lo) | (x > hi)
        clamp_count += int(outside.sum())
        np.clip(x, lo, hi, out=x)
        if (step + 1) % refine == 0:
            values[:, (step + 1) // refine] = x
    return values, clamp_count


SHORT_GRID = TimeGrid(0.0, 0.05, 201)
# negative transmission: every path falls to the lower clamp and stays there
FALLING = RatePair(constant(-1.0), constant(0.05), K)


@pytest.mark.parametrize("drift_correction", DRIFT_CORRECTIONS)
@pytest.mark.parametrize(
    "rates, x0, refine, grid, n_paths",
    [
        (PAIR, 20.0, 1, SHORT_GRID, 7),
        (PAIR, 20.0, 3, SHORT_GRID, 7),
        (RatePair(sinusoid(0.4, 1.0, 1.0), constant(6.0), K), 100.0, 2, SHORT_GRID, 7),
        # the standard 5001-point grid: ten noise blocks, and paths that
        # reach the upper clamp and stay there
        (RatePair(constant(1.2), constant(0.05), K), 20.0, 1, TimeGrid(0.0, 0.01, 5001), 5),
        (FALLING, 20.0, 1, TimeGrid(0.0, 0.05, 1001), 5),
    ],
    ids=["rates0-20.0-1", "rates1-20.0-3", "rates2-100.0-2", "standard_grid", "lower_clamp"],
)
def test_em_matches_the_reference_loop_bit_for_bit(rates, x0, refine, grid, n_paths, drift_correction, kernel_states):
    # every case ends on a partial noise block
    assert (grid.n - 1) * refine % EM_NOISE_BLOCK != 0
    values, clamp_count = _reference_em(rates, x0, grid, n_paths, 13, refine, 2, drift_correction)
    for _ in kernel_states:
        ps = simulate_em(rates, x0, grid, n_paths, 13, refine=refine, replicate=2, drift_correction=drift_correction)
        assert np.array_equal(ps.values, values)
        assert ps.meta["clamp_count"] == clamp_count
    if rates is FALLING:
        # the clamp holds the iterates at exactly the lower edge
        assert clamp_count > 0
        assert np.any(values == CLIP_EPS * K)


@pytest.mark.parametrize(
    "outside, edge",
    [(math.nextafter(CLIP_EPS * K, 0.0), CLIP_EPS * K), (math.nextafter((1.0 - CLIP_EPS) * K, K), (1.0 - CLIP_EPS) * K)],
    ids=["below", "above"],
)
def test_em_refuses_an_x0_outside_the_clamp_band(outside, edge):
    # the band [CLIP_EPS K, (1 - CLIP_EPS) K] holds every stored Euler-Maruyama value, x0 included
    band = re.escape(f"[{CLIP_EPS * K!r}, {(1.0 - CLIP_EPS) * K!r}]")
    with pytest.raises(ValueError, match=f"^x0 must lie in the Euler-Maruyama clamp band {band} "):
        simulate_em(PAIR, outside, SHORT_GRID, 3, 1)
    assert simulate_exact(PAIR, outside, SHORT_GRID, 3, 1).values[0, 0] == outside
    assert simulate_em(PAIR, edge, SHORT_GRID, 3, 1).values[0, 0] == edge


def test_block_draws_continue_one_stream():
    # the kernel draws each path's noise EM_NOISE_BLOCK steps at a time
    seed = derive_path_seed(5, 1, 2)
    whole = np.random.default_rng(seed).standard_normal(3 * EM_NOISE_BLOCK + 17)
    rng = np.random.default_rng(seed)
    blocks = np.empty((2, EM_NOISE_BLOCK))
    parts = []
    for size in (EM_NOISE_BLOCK, EM_NOISE_BLOCK, EM_NOISE_BLOCK, 17):
        rng.standard_normal(out=blocks[1, :size])
        parts.append(blocks[1, :size].copy())
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_em_nan_names_the_path_and_the_time(kernel_states):
    # noise this large overflows both the drift and the shock, and the
    # step turns to inf - inf
    wild = RatePair(constant(0.4), constant(1e308), 1e154)
    for _ in kernel_states:
        with pytest.raises(RuntimeError, match=r"Euler-Maruyama path 1 went NaN by t=100\.0;"):
            simulate_em(wild, 2.5e153, TimeGrid(0.0, 100.0, 5), 3, 0)


@pytest.mark.parametrize(
    "transmission, drift_correction",
    [(0.4, "state"), (0.4, "constant"), (1.2, "constant"), (6.0, "state"), (-1.0, "constant")],
)
def test_em_kernel_gives_the_bytes_of_the_numpy_loop(built_kernels, monkeypatch, transmission, drift_correction):
    # lambda 1.2 and 6.0 hold paths at the upper clamp, -1.0 at the lower one;
    # five replicates of one batch, over two noise blocks
    rates = RatePair(constant(transmission), constant(0.1), K)
    grid = TimeGrid(0.0, 0.05, 1001)
    scheme = simulate._em_scheme(rates, 20.0, grid, 1, drift_correction)
    seeds = [derive_path_seed(17, r, i) for r in range(5) for i in range(10)]
    values, clamps = simulate._em_batch(seeds, 20.0, grid, scheme)
    monkeypatch.setattr(_kernels, "library", lambda: None)
    numpy_values, numpy_clamps = simulate._em_batch(seeds, 20.0, grid, scheme)
    assert values.tobytes() == numpy_values.tobytes()
    assert clamps.tobytes() == numpy_clamps.tobytes()
    if transmission > 1.0:
        assert clamps.sum() > 0 and np.any(values == (1.0 - CLIP_EPS) * K)
    if transmission < 0.0:
        assert clamps.sum() > 0 and np.any(values == CLIP_EPS * K)


@pytest.mark.filterwarnings("error")
def test_em_refuses_capacities_whose_drift_overflows():
    grid = TimeGrid(0.0, 0.05, 21)
    for capacity in (1e300, 2e154, math.nextafter(EM_MAX_CAPACITY, math.inf)):
        rates = RatePair(constant(0.4), constant(0.1), capacity)
        with pytest.raises(ValueError, match='simulator="exact"'):
            simulate_em(rates, capacity / 2.0, grid, 3, 1)
        assert np.all(np.isfinite(simulate_exact(rates, capacity / 2.0, grid, 3, 1).values))
    for capacity in (EM_MAX_CAPACITY, 1e154):
        rates = RatePair(constant(0.4), constant(0.1), capacity)
        assert np.all(np.isfinite(simulate_em(rates, capacity / 2.0, grid, 3, 1).values))


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


def test_zero_or_negative_noise_is_refused():
    grid = TimeGrid(0.0, 0.1, 11)
    negative = RatePair(constant(0.4), constant(-0.1), K)
    for rates in (ZERO_NOISE, negative):
        with pytest.raises(ValueError, match="positive"):
            simulate_exact(rates, 20.0, grid, 5, 1)
        with pytest.raises(ValueError, match="positive"):
            simulate_em(rates, 20.0, grid, 5, 1)


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
