"""The three argument rules, each written once and used at every site.

Counts are ints or numpy integers, never bools, with a lower bound;
capacities and steps are positive and finite; x0 lies strictly inside
(0, K).  Each case is one site fed one slip, and the refusal must be a
ValueError that names the argument.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sidiff import (
    AnalysisConfig,
    ExperimentConfig,
    PathSet,
    RatePair,
    RawSeriesTable,
    TimeGrid,
    TransitionLaw,
    conditional_moment,
    constant,
    cumulate_normalize,
    derive_path_seed,
    deterministic_solution,
    simulate_em,
    simulate_exact,
    threshold_time,
    x_to_y,
    y_to_x,
)
from sidiff.estimate import fit_moment_curves
from sidiff.model import _check_state

K = 200.0
PAIR = RatePair(constant(0.4), constant(0.1), K)
GRID = TimeGrid(0.0, 0.1, 11)
LAW = TransitionLaw(PAIR, 20.0, 0.0)
TABLE = RawSeriesTable(
    times=np.arange(4.0),
    locations=("a", "b"),
    counts=np.array([[5.0, 3.0, 2.0, 1.0], [4.0, 4.0, 1.0, 2.0]]),
    populations=np.array([100.0, 200.0]),
)


def _config(**fields):
    return ExperimentConfig(label="x", rates=PAIR, x0=fields.pop("x0", 20.0), grid=GRID, **fields)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: simulate_em(PAIR, 20.0, GRID, 4, 1, refine=True), "refine must be an integer, not True"),
        (lambda: simulate_em(PAIR, 20.0, GRID, 4, 1, refine=0), "refine must be >= 1"),
        (lambda: simulate_exact(PAIR, 20.0, GRID, 4, True), "master_seed must be an integer, not True"),
        (lambda: simulate_exact(PAIR, 20.0, GRID, 4, 1, replicate=False), "replicate must be an integer, not False"),
        (lambda: simulate_exact(PAIR, 20.0, GRID, 2.0, 1), "n_paths must be an integer, not 2.0"),
        (lambda: simulate_em(PAIR, 20.0, GRID, 0, 1), "n_paths must be >= 1"),
        (lambda: derive_path_seed(0, 0, -1), "path must be >= 0"),
        (lambda: conditional_moment(LAW, True, 1.0), "moment order m must be an integer, not True"),
        (lambda: TimeGrid(0.0, 0.1, 5.0), "grid size n must be an integer, not 5.0"),
        (lambda: _config(replicates=True), "replicates must be an integer, not True"),
        (lambda: _config(n_paths=1), "n_paths must be >= 2"),
        (lambda: AnalysisConfig(capacity=0.25, stride=False), "stride must be an integer, not False"),
        (lambda: fit_moment_curves(np.zeros(11), np.zeros(11), GRID, stride=0), "stride must be >= 1"),
    ],
)
def test_counts_are_integers_never_booleans(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_counts_accept_numpy_integers():
    paths = simulate_exact(PAIR, 20.0, GRID, np.int64(4), np.int64(1), replicate=np.int32(2))
    assert paths.values.shape == (4, 11)
    assert conditional_moment(LAW, np.int64(1), 1.0) == conditional_moment(LAW, 1, 1.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: AnalysisConfig(capacity=math.inf), "capacity"),
        (lambda: cumulate_normalize(TABLE, math.inf), "capacity"),
        (lambda: RatePair(constant(0.4), constant(0.1), 0.0), "capacity"),
        (lambda: PathSet(GRID, np.zeros((1, 11)), "Y", -1.0).validate(), "capacity"),
        (lambda: TimeGrid(0.0, math.inf, 5), "grid step"),
        (lambda: TimeGrid.from_span(0.0, 1.0, True), "grid step"),
    ],
    ids=["analysis-config", "cumulate-normalize", "rate-pair", "path-set", "time-grid", "from-span"],
)
def test_capacities_and_steps_are_positive_and_finite(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
        call()


@pytest.mark.parametrize("capacity", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: x_to_y(5.0, 1.0, k),
        lambda k: y_to_x(0.0, 1.0, k),
        lambda k: deterministic_solution(k, 20.0, 0.4, 0.0, 1.0),
        lambda k: threshold_time(k, 20.0, 0.4, 100.0),
        # the law's rate pair refuses the capacity before the law is made
        lambda k: TransitionLaw(RatePair(constant(0.4), constant(0.1), k), 20.0, 0.0),
    ],
    ids=["x-to-y", "y-to-x", "deterministic-solution", "threshold-time", "transition-law"],
)
def test_state_functions_refuse_a_capacity_that_is_not_finite(call, capacity):
    with pytest.raises(ValueError, match=f"^capacity must be positive and finite, got {capacity!r}$"):
        call(capacity)


@pytest.mark.parametrize(
    "call",
    [
        lambda: _config(x0=K),
        lambda: _config(x0=math.nan),
        lambda: simulate_exact(PAIR, 0.0, GRID, 4, 1),
        lambda: simulate_em(PAIR, -1.0, GRID, 4, 1),
        lambda: TransitionLaw(PAIR, math.inf, 0.0),
        lambda: _config(x0="20"),
        lambda: simulate_exact(PAIR, True, GRID, 4, 1),
    ],
    ids=["config-at-K", "config-nan", "exact-at-0", "em-negative", "law-inf", "config-string", "exact-bool"],
)
def test_x0_lies_strictly_inside_zero_and_capacity(call):
    with pytest.raises(ValueError, match=r"^x0 must lie strictly inside \(0, 200\.0\)$"):
        call()


def _reference_check_state(x, capacity, name="x"):
    # the rule as it stood before the min/max form: four elementwise
    # passes and three np.any calls
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf" or np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= capacity):
        raise ValueError(f"{name} must lie strictly inside (0, {capacity})")


def _verdict(check, x, capacity):
    try:
        check(x, capacity, "x0")
    except ValueError as err:
        return str(err)
    return None


def _assert_same_verdict(x, capacity=K):
    assert _verdict(_check_state, x, capacity) == _verdict(_reference_check_state, x, capacity)


SPECIAL_STATES = [0.0, -0.0, K, -1.0, math.nan, math.inf, -math.inf, 1e-300, 20.0, math.nextafter(K, 0.0)]


@pytest.mark.parametrize(
    "x",
    [
        *SPECIAL_STATES,
        0, 20, -3, 200, 199, 2**70,
        *(np.float64(v) for v in SPECIAL_STATES),
        np.float32(K), np.float32(199.99999), np.int64(20), np.int64(0), np.uint8(200), np.int8(-1),
        *(np.array(v) for v in SPECIAL_STATES),
        np.array(20), np.array(200), np.array(0, dtype=np.uint64),
        np.array([20.0, 50.0]), np.array([20.0, math.nan]), np.array([math.nan, -1.0]),
        np.array([[20.0, 50.0], [1.0, K]]), np.array([[20.0, 50.0], [1.0, math.inf]]),
        np.array([[20, 50], [1, 199]]), np.array([[20, 50], [0, 199]]), np.array([5, 250], dtype=np.int16),
        np.full((3, 4), math.nan), np.array([-math.inf, 20.0]),
        True, False, np.bool_(True), np.array([True, True]),
        "20", np.array(["20"]), b"20", None, 1j, np.array([20.0 + 0j]),
        np.array([]), np.empty((0, 3)), np.empty((2, 0), dtype=np.int64), np.array([], dtype=str), [],
    ],
    ids=repr,
)
def test_state_check_matches_the_elementwise_rule(x):
    _assert_same_verdict(x)


@pytest.mark.parametrize("capacity", [1.0, 200, math.inf, math.nan, -5.0])
@pytest.mark.parametrize("x", [0.5, 20.0, 199.0, math.inf, math.nan, np.array([0.5, 20.0]), np.array([0.5, math.inf])])
def test_state_check_matches_the_elementwise_rule_at_any_capacity(x, capacity):
    # the reference rule lets an infinite or NaN capacity through; _check_state
    # refuses a capacity that is not positive and finite first, whatever x is
    if 0.0 < capacity < math.inf:
        _assert_same_verdict(x, capacity)
    else:
        assert _verdict(_check_state, x, capacity) == f"capacity must be positive and finite, got {capacity!r}"


@pytest.mark.parametrize(
    "x, capacity",
    [
        # float32 compares against the capacity rounded to float32, which
        # for 0.7 lies below it
        (np.float32(0.7), 0.7),
        (np.array(0.7, dtype=np.float32), 0.7),
        (np.array([0.5, 0.7], dtype=np.float32), 0.7),
        # int64 against an int capacity compares exactly, with no rounding to float
        (np.int64(2**53 + 3), 2**53 + 4),
        (np.array(2**53 + 3), 2**53 + 4),
        (2**53 + 3, 2**53 + 4),
    ],
)
def test_state_check_keeps_numpy_comparison_rules(x, capacity):
    _assert_same_verdict(x, capacity)


_states = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_STATES)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _states,
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        hnp.arrays(
            st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.uint16]),
            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
        ),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4), elements=_states),
    )
)
def test_state_check_matches_the_elementwise_rule_on_random_states(x):
    _assert_same_verdict(x)
