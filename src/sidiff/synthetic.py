"""Synthetic incidence data shaped like a multi-location epidemic record.

Twenty locations observed over 546 intervals, each location one sample
path of the same diffusion: transmission starting high and decaying to
a small endemic level, noise intensity decaying toward zero, capacity
a quarter of the population.  The counts are integer-rounded incident
cases, so the round trip through `cumulate_normalize` exercises the
same quantization a real surveillance table would.
"""

from __future__ import annotations

import numpy as np

from .dataio import RawSeriesTable
from .rates import RatePair, tabulated
from .simulate import TimeGrid, simulate_exact

__all__ = ["measles_like_table", "measles_like_rates"]

N_LOCATIONS = 20
N_TIMES = 546
CAPACITY = 0.25
X0 = 0.002
MASTER_SEED = 97531


def measles_like_rates(n_times: int = N_TIMES, capacity: float = CAPACITY) -> RatePair:
    """Decaying transmission and noise intensities on [0, n_times - 1].

    Transmission falls from about 0.08 + 0.003 per interval to the
    endemic 0.003; noise falls from about 3.2e-4 to 2e-5.  Both are
    tabulated splines so the synthetic truth is not expressible by any
    analytic kind the estimator could secretly exploit.
    """
    knots = np.linspace(0.0, n_times - 1.0, 40)
    lam = tabulated(knots, 0.003 + 0.08 * np.exp(-knots / 60.0))
    s2 = tabulated(knots, 2e-5 + 3e-4 * np.exp(-knots / 70.0))
    return RatePair(lam, s2, capacity)


def measles_like_table(
    n_locations: int = N_LOCATIONS,
    n_times: int = N_TIMES,
    capacity: float = CAPACITY,
    master_seed: int = MASTER_SEED,
) -> RawSeriesTable:
    """Integer incident counts per location plus population sizes."""
    rates = measles_like_rates(n_times, capacity)
    grid = TimeGrid(0.0, 1.0, n_times)
    paths = simulate_exact(rates, X0, grid, n_locations, master_seed)
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(999,)))
    populations = rng.integers(50_000, 500_000, size=n_locations)

    # incident cases: rounded person-count increments (the first one is
    # the start); the diffusion can dip locally but a count series
    # cannot, so negatives floor at zero the way surveillance data would
    # record them
    cases = np.round(np.diff(paths.values, axis=1, prepend=0.0) * populations[:, None])
    return RawSeriesTable(
        times=grid.times.copy(),
        locations=tuple(f"loc{i + 1:02d}" for i in range(n_locations)),
        counts=np.maximum(cases, 0.0),
        populations=populations.astype(float),
    )
