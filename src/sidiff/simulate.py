"""Path generation for the logistic growth diffusion.

Exact sampling works on the Gaussian coordinate: the transformed
process has independent Gaussian increments whose per-step mean and
variance are the rate integrals over the step, so a sample path is a
cumulative sum.  No discretization error enters anywhere.  A
replicate's draws are scaled, shifted and summed in one call of the C
kernel `sidiff_exact_paths` (see sidiff._kernels), or, where it cannot
be built, by numpy's in-place multiply, add and cumsum, which do the
same operations in the same order and give the same bytes.

An Euler-Maruyama integrator on the original state equation is kept as
an independent cross-check.  It carries O(step) weak bias and a
boundary clamp, and is not meant for production runs.  A run makes its
argument checks and per-step rate tables once, then integrates one
replicate at a time: each path draws its noise in blocks of
EM_NOISE_BLOCK steps, never as one (paths, steps) array, and the steps
of a block run in one call of the C kernel `sidiff_em_steps` (see
sidiff._kernels), which reads the draws in place, counts the clamp
hits, clamps, and stores the observed iterates.  Where it cannot be
built, its numpy twin `_em_steps` does the same operations in the same
order, one array expression per step, and gives the same bytes, about
seven times slower.

Random numbers: every (replicate, path) pair gets its own stream,
derived from the master seed by a counter-based key.  Serial and
parallel schedules therefore produce bit-identical output, and a
subset of paths is unchanged by simulating more of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import _kernels
from .model import CLIP_EPS, _check_state, y_to_x
from .rates import RatePair, _finite_number, _positive_number, _whole_number, evaluate, increment_table

__all__ = [
    "TimeGrid",
    "PathSet",
    "derive_path_seed",
    "simulate_exact",
    "simulate_em",
]

EM_NOISE_BLOCK = 512  # internal steps of noise drawn per path at a time
# largest capacity whose Euler-Maruyama drift term (K - x) x stays finite
EM_MAX_CAPACITY = math.sqrt(np.finfo(float).max)

DRIFT_CORRECTIONS = ("state", "constant")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform observation grid t0, t0 + delta, ..., t0 + (n-1) delta."""

    t0: float
    delta: float
    n: int

    def __post_init__(self) -> None:
        _whole_number(self.n, "grid size n", 2)
        _finite_number(self.t0, "grid start")
        _positive_number(self.delta, "grid step")

    @cached_property
    def times(self) -> np.ndarray:
        return self.t0 + self.delta * np.arange(self.n)

    @property
    def end(self) -> float:
        return self.t0 + self.delta * (self.n - 1)

    @classmethod
    def from_span(cls, t0: float, t_end: float, delta: float) -> "TimeGrid":
        """Grid covering [t0, t_end]; t_end must be a whole number of steps away."""
        _finite_number(t0, "grid start")
        _finite_number(t_end, "grid end")
        _positive_number(delta, "grid step")
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
        _positive_number(self.capacity, "capacity")
        if self.space not in ("X", "Y"):
            raise ValueError(f"space must be 'X' or 'Y', got {self.space!r}")
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.n:
            raise ValueError("values must have shape (n_paths, grid.n)")
        if self.values.shape[0] < 1:
            raise ValueError("need at least one path")
        lo, hi = float(self.values.min()), float(self.values.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"path values must be finite, got {hi if math.isfinite(lo) else lo!r}")
        if self.space == "X" and (lo <= 0.0 or hi >= self.capacity):
            worst = lo if lo <= 0.0 else hi
            raise ValueError(f"X-space paths must stay strictly inside (0, {self.capacity!r}), got {worst!r}")
        if self.space == "Y" and np.any(self.values[:, 0] != 0.0):
            raise ValueError("Y-space paths must start at exactly zero")


def derive_path_seed(master_seed: int, replicate: int, path: int) -> SeedSequence:
    """Independent, reproducible stream key for one path of one replicate.

    The (replicate, path) pair goes into the spawn key, so the mapping
    is stable across runs, platforms and parallel schedules.  Each
    argument must be a nonnegative int or numpy integer; bools are
    refused.
    """
    _whole_number(master_seed, "master_seed")
    _whole_number(replicate, "replicate")
    _whole_number(path, "path")
    return SeedSequence(int(master_seed), spawn_key=(int(replicate), int(path)))


def simulate_exact(
    rates: RatePair,
    x0: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    *,
    replicate: int = 0,
) -> PathSet:
    """Exact sample paths of the state process on the observation grid.

    Draws Gaussian increments of the transformed coordinate (mean: the
    transmission integral over the step, variance: the noise integral)
    and maps back.  The noise must be positive on the whole window.
    """
    ypaths = next(_exact_replicates(rates, x0, grid, n_paths, master_seed, [replicate]))
    ps = PathSet(grid, y_to_x(ypaths.values, x0, rates.capacity), "X", rates.capacity, seed=ypaths.seed)
    _fix_boundary_rounding(ps)
    return ps


def _exact_replicates(
    rates: RatePair,
    x0: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    replicates,
):
    """Yield each replicate's exact paths as a Y-space PathSet, one per `next`.

    The checks and increment tables run once, on the first `next`; path
    i of replicate r draws from its own stream into row i, from column 1
    on.  One call of the C kernel `sidiff_exact_paths` then zeroes column
    0 and scales, shifts and sums the draws of every row into Y values;
    where it cannot be built, the same operations run as numpy's
    in-place multiply, add and cumsum, which give the same bytes."""
    k = rates.capacity
    _check_state(x0, k, "x0")
    _whole_number(n_paths, "n_paths", 1)
    rates.validate_window(grid.t0, grid.end, grid.n)
    mean_inc = increment_table(rates.transmission, grid)
    var_inc = increment_table(rates.noise, grid)
    if np.any(var_inc <= 0.0):
        raise ValueError("noise integral must be positive on every step")
    sd_inc = np.sqrt(var_inc)
    lib = _kernels.library()
    if lib is not None:  # the kernel reads raw pointers
        _kernels.check_arrays(mean_inc, sd_inc)

    for r in replicates:
        values = np.empty((n_paths, grid.n))
        z = values[:, 1:]  # steps drawn and summed in place: no second path-sized array is held
        for i in range(n_paths):
            default_rng(derive_path_seed(master_seed, r, i)).standard_normal(out=z[i])
        if lib is None:
            values[:, 0] = 0.0
            z *= sd_inc
            z += mean_inc
            np.cumsum(z, axis=1, out=z)
        else:
            lib.sidiff_exact_paths(n_paths, grid.n, mean_inc.ctypes.data, sd_inc.ctypes.data, values.ctypes.data)
        yield PathSet(grid, values, "Y", k, seed={"master_seed": int(master_seed), "replicate": int(r)})


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
) -> PathSet:
    """Euler-Maruyama paths of the state equation, observed on `grid`.

    The integrator runs at internal step delta/refine and records every
    refine-th iterate; refine is an int or numpy integer >= 1, and a
    bool is refused.  Iterates are clamped into
    [CLIP_EPS K, (1 - CLIP_EPS) K], the edges to which
    estimate.transform_paths clips (CLIP_EPS = 1e-9, from sidiff.model);
    clamp hits are counted in meta["clamp_count"].  x0 must lie in that
    band too, so every stored value does; simulate_exact takes any x0
    in (0, K).  A path that goes
    NaN raises RuntimeError naming the path and the first observation
    time at which it is NaN.
    A capacity above EM_MAX_CAPACITY (about 1.34e154), where the drift
    term (K - x) x overflows, is refused; simulate_exact has no limit.

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
    return next(_em_replicates(
        rates, x0, grid, n_paths, master_seed, [replicate], refine=refine, drift_correction=drift_correction
    ))


def _em_replicates(
    rates: RatePair,
    x0: float,
    grid: TimeGrid,
    n_paths: int,
    master_seed: int,
    replicates,
    *,
    refine: int,
    drift_correction: str,
):
    """Yield the `simulate_em` PathSet of each replicate, one per `next`.

    The checks and the step operands (`_em_scheme`) run once, on the
    first `next`.  Path i of replicate r draws its noise from its own
    stream, EM_NOISE_BLOCK steps at a time, into row i of one (paths,
    block) buffer; consecutive draws from one generator continue its
    stream, so the noise equals one draw of the full length.  The steps
    of a block run in one call of the C kernel `sidiff_em_steps` or,
    where it cannot be built, of its twin `_em_steps`, which count the
    clamp hits, clamp, and store x at each observation time.  A NaN
    iterate stays NaN through the step and the clamp and is never
    counted as a clamp, so a replicate with a NaN path is found from its
    last column and raises when its `next` comes.
    """
    _whole_number(n_paths, "n_paths", 1)
    s = _em_scheme(rates, x0, grid, refine, drift_correction)
    total_steps = s.lam.shape[0]
    draws = np.empty((n_paths, min(EM_NOISE_BLOCK, total_steps)))
    lib = _kernels.library()
    if lib is not None:  # the kernel reads raw pointers
        _kernels.check_arrays(s.lam, s.s2, s.sd)
    for r in replicates:
        rngs = [default_rng(derive_path_seed(master_seed, r, i)) for i in range(n_paths)]
        x = np.full(n_paths, float(x0))
        values = np.empty((n_paths, grid.n))
        values[:, 0] = x
        clamps = np.zeros(n_paths, dtype=np.int64)
        for start in range(0, total_steps, EM_NOISE_BLOCK):
            steps = min(EM_NOISE_BLOCK, total_steps - start)
            for i, rng in enumerate(rngs):
                rng.standard_normal(out=draws[i, :steps])
            if lib is None:
                _em_steps(start, steps, draws, s, x, clamps, values)
            else:
                lib.sidiff_em_steps(
                    n_paths, start, steps, draws.shape[1], draws.ctypes.data,
                    s.lam.ctypes.data, s.s2.ctypes.data, s.sd.ctypes.data, s.k, s.two_k, s.h, s.sqrt_h, s.lo, s.hi,
                    s.state_drift, s.refine, x.ctypes.data, clamps.ctypes.data, grid.n, values.ctypes.data,
                )
        nan_paths = np.flatnonzero(np.isnan(values[:, -1]))
        if nan_paths.size:
            i = int(nan_paths[0])
            first = int(np.argmax(np.isnan(values[i])))
            raise RuntimeError(
                f"Euler-Maruyama path {i} went NaN by t={grid.times[first]}; reduce the step or check the rates"
            )
        yield PathSet(
            grid=grid,
            values=values,
            space="X",
            capacity=rates.capacity,
            seed={"master_seed": int(master_seed), "replicate": int(r)},
            meta={"clamp_count": int(clamps.sum()), "refine": int(refine), "drift_correction": drift_correction},
        )


class _EMScheme(NamedTuple):
    """Operands of one run's Euler-Maruyama steps.

    lam, s2 and sd are the transmission (with the constant correction
    folded in), the noise and its square root at the left end of each
    internal step.
    """

    refine: int
    state_drift: bool
    lam: np.ndarray
    s2: np.ndarray
    sd: np.ndarray
    k: float
    two_k: float
    h: float
    sqrt_h: float
    lo: float  # clamp edges CLIP_EPS K and (1 - CLIP_EPS) K
    hi: float


def _em_scheme(rates: RatePair, x0: float, grid: TimeGrid, refine: int, drift_correction: str) -> _EMScheme:
    """Check an Euler-Maruyama run's arguments and build its step operands."""
    k = rates.capacity
    _check_state(x0, k, "x0")
    lo, hi = _check_em_start(x0, k)
    _whole_number(refine, "refine", 1)
    if drift_correction not in DRIFT_CORRECTIONS:
        raise ValueError(f"drift_correction must be one of {DRIFT_CORRECTIONS}")
    rates.validate_window(grid.t0, grid.end, grid.n)

    h = grid.delta / refine
    t_left = grid.t0 + h * np.arange((grid.n - 1) * refine)  # left endpoint of each internal step
    lam_vals = np.asarray(evaluate(rates.transmission, t_left), dtype=float)
    s2_vals = np.asarray(evaluate(rates.noise, t_left), dtype=float)
    if np.any(s2_vals < 0.0):
        raise ValueError("noise intensity is negative on the internal grid")
    sd_vals = np.sqrt(s2_vals)
    if drift_correction == "constant":
        lam_vals = lam_vals + 0.5 * s2_vals
    state_drift = drift_correction == "state"
    return _EMScheme(int(refine), state_drift, lam_vals, s2_vals, sd_vals, k, 2.0 * k, h, math.sqrt(h), lo, hi)


def _check_em_start(x0: float, k: float) -> tuple[float, float]:
    """The clamp band's edges; refuses an x0 in (0, K) outside them and a K above EM_MAX_CAPACITY."""
    lo, hi = CLIP_EPS * k, (1.0 - CLIP_EPS) * k
    if not lo <= float(x0) <= hi:
        raise ValueError(f"x0 must lie in the Euler-Maruyama clamp band [{lo!r}, {hi!r}] (CLIP_EPS K from 0 and K)")
    if k > EM_MAX_CAPACITY:
        raise ValueError(
            f"capacity {k:g} is above {EM_MAX_CAPACITY:.4g}, where the Euler-Maruyama drift "
            '(K - x) x overflows; use simulator="exact"'
        )
    return lo, hi


def _em_steps(start: int, steps: int, draws: np.ndarray, s: _EMScheme, x: np.ndarray, clamps: np.ndarray,
              values: np.ndarray) -> None:
    """The C kernel `sidiff_em_steps` in numpy: its reference and its fallback.

    Internal step start + j reads the draws in column j and takes the
    kernel's step, one expression in the kernel's operation order, so
    the iterates are bit-identical.  Iterates outside [lo, hi] are
    counted into clamps, np.clip (as the array method) clamps them into
    x, where a NaN stays NaN as in the kernel, and x is written into
    values at each observation time.
    """
    k, two_k, h, sqrt_h, lo, hi = s.k, s.two_k, s.h, s.sqrt_h, s.lo, s.hi
    rates = zip(*(a[start : start + steps].tolist() for a in (s.lam, s.s2, s.sd)))
    for j, (lam, s2, sd) in enumerate(rates):
        logistic = (k - x) * x / k
        drift = ((k - x * 2.0) * s2 / two_k + lam) * logistic if s.state_drift else logistic * lam
        y = (x + drift * h) + logistic * sd * sqrt_h * draws[:, j]
        clamps += y < lo
        clamps += y > hi
        y.clip(lo, hi, out=x)
        if (start + j + 1) % s.refine == 0:
            values[:, (start + j + 1) // s.refine] = x
