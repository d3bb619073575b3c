"""The three argument rules, each written once and used at every site.

Counts are ints or numpy integers, never bools, with a lower bound;
capacities and steps are positive and finite; x0 lies strictly inside
(0, K).  Each case is one site fed one slip, and the refusal must be a
ValueError that names the argument.
"""

import math

import numpy as np
import pytest

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
    simulate_em,
    simulate_exact,
)
from sidiff.estimate import fit_moment_curves

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
