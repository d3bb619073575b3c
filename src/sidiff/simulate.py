"""Path generation for the logistic growth diffusion.

Exact sampling works on the Gaussian coordinate: the transformed
process has independent Gaussian increments whose per-step mean and
variance are the rate integrals over the step, so a sample path is a
cumulative sum.  No discretization error enters anywhere.

An Euler-Maruyama integrator on the original state equation is kept as
an independent cross-check.  It carries O(step) weak bias and a
boundary clamp, and is not meant for production runs.

Random numbers: every (replicate, path) pair gets its own stream,
derived from the master seed by a counter-based key.  Serial and
parallel schedules therefore produce bit-identical output, and a
subset of paths is unchanged by simulating more of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import y_to_x
from .rates import RatePair, evaluate, increment_table

__all__ = [
    "TimeGrid",
    "PathSet",
    "derive_path_seed",
    "simulate_exact",
    "simulate_em",
]

EM_CLAMP_EPS = 1e-9  # relative clamp width for Euler-Maruyama iterates

DRIFT_CORRECTIONS = ("state", "constant")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform observation grid t0, t0 + delta, ..., t0 + (n-1) delta."""

    t0: float
    delta: float
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"grid size n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError("grid needs at least two points")
        if not (math.isfinite(self.t0) and math.isfinite(self.delta)):
            raise ValueError("grid start and step must be finite")
        if not self.delta > 0.0:
            raise ValueError("grid step must be positive")

    @cached_property
    def times(self) -> np.ndarray:
        return self.t0 + self.delta * np.arange(self.n)

    @property
    def end(self) -> float:
        return self.t0 + self.delta * (self.n - 1)

    @classmethod
    def from_span(cls, t0: float, t_end: float, delta: float) -> "TimeGrid":
        """Grid covering [t0, t_end]; t_end must be a whole number of steps away."""
        n_steps = (t_end - t0) / delta
        n_round = round(n_steps)
        if abs(n_steps - n_round) > 1e-8 * max(1.0, abs(n_steps)):
            raise ValueError("t_end - t0 must be an integer multiple of delta")
        return cls(t0, delta, int(n_round) + 1)


@dataclass
class PathSet:
    """A bundle of sample paths on a common grid.

    `space` is "X" for paths of the bounded state (strictly inside
    (0, capacity)) or "Y" for the transformed Gaussian coordinate
    (first column identically zero).
    """

    grid: TimeGrid
    values: np.ndarray  # shape (n_paths, grid.n)
    space: str
    capacity: float
    seed: dict | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def validate(self) -> None:
        if self.space not in ("X", "Y"):
            raise ValueError(f"space must be 'X' or 'Y', got {self.space!r}")
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.n:
            raise ValueError("values must have shape (n_paths, grid.n)")
        if self.values.shape[0] < 1:
            raise ValueError("need at least one path")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("path values must be finite")
        if self.space == "X":
            if np.any(self.values <= 0.0) or np.any(self.values >= self.capacity):
                raise ValueError("X-space paths must stay strictly inside (0, capacity)")
        else:
            if np.any(self.values[:, 0] != 0.0):
                raise ValueError("Y-space paths must start at exactly zero")


def derive_path_seed(master_seed: int, replicate: int, path: int) -> np.random.SeedSequence:
    """Independent, reproducible stream key for one path of one replicate.

    The (replicate, path) pair goes into the spawn key, so the mapping
    is stable across runs, platforms and parallel schedules.
    """
    for name, v in (("master_seed", master_seed), ("replicate", replicate), ("path", path)):
        if not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError(f"{name} must be a nonnegative integer")
    return np.random.SeedSequence(int(master_seed), spawn_key=(int(replicate), int(path)))


def simulate_exact(
    rates: RatePair,
    x0: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    *,
    replicate: int = 0,
    allow_zero_noise: bool = False,
) -> PathSet:
    """Exact sample paths of the state process on the observation grid.

    Draws Gaussian increments of the transformed coordinate (mean: the
    transmission integral over the step, variance: the noise integral)
    and maps back.  Set allow_zero_noise to permit degenerate steps
    with zero variance, e.g. for deterministic-limit checks.
    """
    k = rates.capacity
    if not (0.0 < x0 < k):
        raise ValueError(f"x0 must lie strictly inside (0, {k})")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rates.validate_window(grid.t0, grid.end, grid.n, allow_zero_noise=allow_zero_noise)
    mean_inc = increment_table(rates.transmission, grid)
    var_inc = increment_table(rates.noise, grid)
    if np.any(var_inc < 0.0):
        raise ValueError("noise integral is negative on some step")
    if not allow_zero_noise and np.any(var_inc <= 0.0):
        raise ValueError("noise integral must be positive on every step")
    sd_inc = np.sqrt(var_inc)

    values = np.empty((n_paths, grid.n))
    for i in range(n_paths):
        rng = np.random.default_rng(derive_path_seed(master_seed, replicate, i))
        z = rng.standard_normal(grid.n - 1)
        y = np.empty(grid.n)
        y[0] = 0.0
        np.cumsum(mean_inc + sd_inc * z, out=y[1:])
        values[i] = y_to_x(y, x0, k)

    ps = PathSet(
        grid=grid,
        values=values,
        space="X",
        capacity=k,
        seed={"master_seed": int(master_seed), "replicate": int(replicate)},
    )
    _fix_boundary_rounding(ps)
    return ps


def _fix_boundary_rounding(ps: PathSet) -> None:
    # the exact law keeps paths inside (0, K); double precision may
    # round extreme excursions onto the boundary, pull those back in
    bad = (ps.values <= 0.0) | (ps.values >= ps.capacity)
    n_bad = int(bad.sum())
    if n_bad:
        np.clip(
            ps.values,
            np.nextafter(0.0, ps.capacity),
            np.nextafter(ps.capacity, 0.0),
            out=ps.values,
        )
        ps.meta["boundary_rounding_fixes"] = n_bad


def simulate_em(
    rates: RatePair,
    x0: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    *,
    refine: int = 1,
    replicate: int = 0,
    drift_correction: str = "state",
    allow_zero_noise: bool = False,
) -> PathSet:
    """Euler-Maruyama paths of the state equation, observed on `grid`.

    The integrator runs at internal step delta/refine and records every
    refine-th iterate.  Iterates are clamped into
    [eps K, (1 - eps) K] with eps = 1e-9; clamp hits are counted in
    meta["clamp_count"].

    drift_correction selects the Ito correction inside the drift:

      "state"     the exact state-dependent term s2 (K - 2x) / (2K);
                  with it the transformed coordinate drifts at the
                  transmission intensity and the scheme converges to
                  the exact law as the step shrinks.
      "constant"  the constant term s2 / 2.  This widespread
                  simplification biases the transformed drift upward by
                  s2 * x / K at any step size.  Kept as an explicit
                  option for replicating results produced that way.
    """
    k = rates.capacity
    if not (0.0 < x0 < k):
        raise ValueError(f"x0 must lie strictly inside (0, {k})")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not isinstance(refine, (int, np.integer)) or refine < 1:
        raise ValueError("refine must be an integer >= 1")
    if drift_correction not in DRIFT_CORRECTIONS:
        raise ValueError(f"drift_correction must be one of {DRIFT_CORRECTIONS}")
    rates.validate_window(grid.t0, grid.end, grid.n, allow_zero_noise=allow_zero_noise)

    h = grid.delta / refine
    total_steps = (grid.n - 1) * refine
    t_left = grid.t0 + h * np.arange(total_steps)  # left endpoint of each internal step
    lam_vals = np.asarray(evaluate(rates.transmission, t_left), dtype=float)
    s2_vals = np.asarray(evaluate(rates.noise, t_left), dtype=float)
    if np.any(s2_vals < 0.0):
        raise ValueError("noise intensity is negative on the internal grid")

    noise = np.empty((n_paths, total_steps))
    for i in range(n_paths):
        rng = np.random.default_rng(derive_path_seed(master_seed, replicate, i))
        noise[i] = rng.standard_normal(total_steps)

    lo, hi = EM_CLAMP_EPS * k, (1.0 - EM_CLAMP_EPS) * k
    x = np.full(n_paths, float(x0))
    values = np.empty((n_paths, grid.n))
    values[:, 0] = x
    clamp_count = 0
    sqrt_h = np.sqrt(h)
    for step in range(total_steps):
        s2 = s2_vals[step]
        logistic = x * (k - x) / k
        if drift_correction == "state":
            drift = logistic * (lam_vals[step] + s2 * (k - 2.0 * x) / (2.0 * k))
        else:
            drift = logistic * (lam_vals[step] + 0.5 * s2)
        x = x + drift * h + np.sqrt(s2) * logistic * sqrt_h * noise[:, step]
        if np.any(np.isnan(x)):
            raise RuntimeError(
                f"Euler-Maruyama iterate went NaN at internal step {step} "
                f"(t={t_left[step] + h}); reduce the step or check the rates"
            )
        outside = (x < lo) | (x > hi)
        n_outside = int(outside.sum())
        if n_outside:
            clamp_count += n_outside
            np.clip(x, lo, hi, out=x)
        if (step + 1) % refine == 0:
            values[:, (step + 1) // refine] = x

    return PathSet(
        grid=grid,
        values=values,
        space="X",
        capacity=k,
        seed={"master_seed": int(master_seed), "replicate": int(replicate)},
        meta={"clamp_count": clamp_count, "refine": int(refine), "drift_correction": drift_correction},
    )
