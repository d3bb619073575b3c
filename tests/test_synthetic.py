"""Sanity checks for the built-in multi-location incidence fixture."""

import numpy as np

from sidiff.rates import evaluate
from sidiff.synthetic import (
    CAPACITY,
    N_LOCATIONS,
    N_TIMES,
    measles_like_rates,
    measles_like_table,
)


def test_table_shape_and_validity():
    table = measles_like_table()
    table.validate()
    assert len(table.locations) == N_LOCATIONS
    assert table.times.size == N_TIMES
    assert table.counts.shape == (N_LOCATIONS, N_TIMES)
    assert np.all(table.counts >= 0.0)
    assert np.all(table.counts == np.round(table.counts))  # integer case counts
    assert table.populations.shape == (N_LOCATIONS,)
    assert np.all(table.populations > 0.0)


def test_table_is_deterministic():
    a = measles_like_table()
    b = measles_like_table()
    assert a.locations == b.locations
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.populations, b.populations)


def test_rates_cover_the_observation_window():
    pair = measles_like_rates()
    assert pair.capacity == CAPACITY
    # tabulated kinds refuse evaluation outside their knot span, so the
    # window endpoints must be inside it
    for t in (0.0, N_TIMES - 1.0):
        assert evaluate(pair.transmission, t) > 0.0
        assert evaluate(pair.noise, t) > 0.0
    # decaying shape: early transmission well above the endemic tail
    assert evaluate(pair.transmission, 0.0) > 5.0 * evaluate(
        pair.transmission, N_TIMES - 1.0
    )
