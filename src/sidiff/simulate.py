"""Path generation for the logistic growth diffusion.

Exact sampling works on the Gaussian coordinate: the transformed
process has independent Gaussian increments whose per-step mean and
variance are the rate integrals over the step, so a sample path is a
cumulative sum.  No discretization error enters anywhere.

An Euler-Maruyama integrator on the original state equation is kept as
an independent cross-check.  It carries O(step) weak bias and a
boundary clamp, and is not meant for production runs.  It runs once
for a whole batch of paths: every path of every replicate in the batch
takes each internal step together (`simulate_em` is the batch of one
replicate; a run integrates as many replicates at a time as fit
EM_BATCH_BYTES of path values, five 50 x 5001 replicates in 10 MiB).
The argument checks, the per-step rate tables and the step's scalar
operands, held as 0-d float64 arrays, are made once per run.  Noise is
drawn per path in blocks of EM_NOISE_BLOCK steps, never as one
(paths, steps) array, so a batch holds its path values plus two small
noise buffers.  The steps of a block run in one call of the C kernel
`sidiff_em_steps` (see sidiff._kernels), or, where it cannot be built,
in `_em_steps`, one ufunc call per operation of the scheme; the two do
the same operations in the same order and give the same bytes.  A step
writes its unclamped iterate over the noise it has used; once per
block, one vectorised pass over that buffer counts the clamp hits,
clips the iterates and stores those at the observation times.

Random numbers: every (replicate, path) pair gets its own stream,
derived from the master seed by a counter-based key.  Serial, parallel
and batched schedules therefore produce bit-identical output, and a
subset of paths is unchanged by simulating more of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.random import SeedSequence, default_rng

try:  # the ufunc np.clip calls after its checks; keeps NaN, as np.clip does
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip as _clip

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
# path values per Euler-Maruyama batch of replicates (five of 50 x 5001);
# wider batches step faster but raise the peak memory of a run
EM_BATCH_BYTES = 10 * 2**20
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
    batch = _exact_replicates(rates, x0, grid, n_paths, master_seed, [replicate])
    ypaths = next(batch)
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
    i of replicate r draws from its own stream into row i."""
    k = rates.capacity
    _check_state(x0, k, "x0")
    _whole_number(n_paths, "n_paths", 1)
    rates.validate_window(grid.t0, grid.end, grid.n)
    mean_inc = increment_table(rates.transmission, grid)
    var_inc = increment_table(rates.noise, grid)
    if np.any(var_inc <= 0.0):
        raise ValueError("noise integral must be positive on every step")
    sd_inc = np.sqrt(var_inc)

    for r in replicates:
        values = np.zeros((n_paths, grid.n))
        z = values[:, 1:]  # steps drawn and summed in place: no second path-sized array is held
        for i in range(n_paths):
            default_rng(derive_path_seed(master_seed, r, i)).standard_normal(out=z[i])
        z *= sd_inc
        z += mean_inc
        np.cumsum(z, axis=1, out=z)
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
    batch = _em_replicates(
        rates, x0, grid, n_paths, master_seed, [replicate], refine=refine, drift_correction=drift_correction
    )
    return next(batch)


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
    """Yield the `simulate_em` PathSet of each replicate, in order.

    The checks and the step operands (`_em_scheme`) run once, on the
    first `next`.  Replicates are integrated together, as many as fit
    EM_BATCH_BYTES of path values (at least one), on the `next` that
    reaches the first of them.  A batch's paths are the rows of one
    array, each yielded PathSet holds a view of its rows, and the batch
    is dropped before the next one is integrated.  A replicate with a
    NaN path raises when its turn comes, so callers that interleave
    other work per replicate see failures in replicate order.
    """
    _whole_number(n_paths, "n_paths", 1)
    scheme = _em_scheme(rates, x0, grid, refine, drift_correction)
    size = max(1, EM_BATCH_BYTES // (8 * n_paths * grid.n))
    for lo in range(0, len(replicates), size):
        batch = replicates[lo : lo + size]
        seeds = [derive_path_seed(master_seed, r, i) for r in batch for i in range(n_paths)]
        values, clamps = _em_batch(seeds, x0, grid, scheme)
        for j, r in enumerate(batch):
            rows = slice(j * n_paths, (j + 1) * n_paths)
            nan_paths = np.flatnonzero(np.isnan(values[rows, -1]))
            if nan_paths.size:
                i = int(nan_paths[0])
                first = int(np.argmax(np.isnan(values[rows][i])))
                raise RuntimeError(
                    f"Euler-Maruyama path {i} went NaN by t={grid.times[first]}; "
                    "reduce the step or check the rates"
                )
            yield PathSet(
                grid=grid,
                values=values[rows],
                space="X",
                capacity=rates.capacity,
                seed={"master_seed": int(master_seed), "replicate": int(r)},
                meta={
                    "clamp_count": int(clamps[rows].sum()),
                    "refine": int(refine),
                    "drift_correction": drift_correction,
                },
            )
        del values, clamps


class _EMScheme(NamedTuple):
    """Operands of one run's Euler-Maruyama steps.

    lam, s2 and sd are the transmission (with the constant correction
    folded in), the noise and its square root at the left end of each
    internal step.  The scalars are 0-d float64 arrays, which a ufunc
    takes with less overhead than Python floats; the values, and so
    the iterates, are the same.
    """

    refine: int
    state_drift: bool
    lam: np.ndarray
    s2: np.ndarray
    sd: np.ndarray
    k: np.ndarray
    two_k: np.ndarray
    two: np.ndarray
    h: np.ndarray
    sqrt_h: np.ndarray
    lo: np.ndarray  # clamp edges CLIP_EPS K and (1 - CLIP_EPS) K
    hi: np.ndarray


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
    scalars = (k, 2.0 * k, 2.0, h, math.sqrt(h), lo, hi)
    return _EMScheme(int(refine), drift_correction == "state", lam_vals, s2_vals, sd_vals, *map(np.array, scalars))


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


def _zero_d(values: np.ndarray) -> list[np.ndarray]:
    """The entries of a 1-d array as 0-d array views."""
    return [values[j, ...] for j in range(values.shape[0])]


def _em_batch(seeds: list[SeedSequence], x0: float, grid: TimeGrid, scheme: _EMScheme) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maruyama paths of one batch: each internal step for all paths at once.

    Path i draws its noise from `seeds[i]`, EM_NOISE_BLOCK steps at a
    time; consecutive draws from one generator continue its stream, so
    the noise equals one draw of the full length.  Each block is copied
    into one reused (steps, paths) buffer, one row per step, and its
    steps run in one call of the C kernel `sidiff_em_steps` or, where
    it cannot be built, of `_em_steps`: a step reads its row, writes its
    iterate there before the clamp, and clamps x into [lo, hi] as
    np.clip does.  After the block, its cells below and above the
    clamp edges are counted (one boolean array of the block at a time),
    clipped (the same values the clamped x took), and every refine-th
    row is copied, transposed, into the path values, so no buffer of
    iterates is needed besides the block's.  Every operation is
    elementwise, so a path's values do not depend on which other paths
    share the batch.  Returns the (len(seeds), grid.n) values and the
    clamp hits per path.  A NaN iterate stays NaN through the step and
    the clamp and is never counted as a clamp, so NaN paths are left in
    and found by the caller from the last column.
    """
    s = scheme
    refine, total_steps = s.refine, s.lam.shape[0]
    rngs = [default_rng(seed) for seed in seeds]
    n_paths = len(rngs)
    x = np.full(n_paths, float(x0))
    values = np.empty((n_paths, grid.n))
    values[:, 0] = x
    clamps = np.zeros(n_paths, dtype=np.int64)
    lib = _kernels.library()
    draws = np.empty((n_paths, min(EM_NOISE_BLOCK, total_steps)))
    steps_by_paths = np.empty(draws.shape[::-1])
    for start in range(0, total_steps, EM_NOISE_BLOCK):
        stop = min(start + EM_NOISE_BLOCK, total_steps)
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=draws[i, : stop - start])
        block = steps_by_paths[: stop - start]  # one contiguous row per step
        block[...] = draws[:, : stop - start].T
        rates = s.lam[start:stop], s.s2[start:stop], s.sd[start:stop]
        if lib is None:
            _em_steps(block, x, *rates, s)
        else:
            scalars = map(float, (s.k, s.two_k, s.h, s.sqrt_h, s.lo, s.hi))
            lib.sidiff_em_steps(stop - start, n_paths, *rates, *scalars, s.state_drift, x, block)
        clamps += np.count_nonzero(block < s.lo, axis=0) + np.count_nonzero(block > s.hi, axis=0)
        _clip(block, s.lo, s.hi, block)
        first = (refine - 1 - start) % refine  # first row that ends an observation step
        kept = block[first::refine]
        col = (start + first + 1) // refine
        values[:, col : col + kept.shape[0]] = kept.T
    return values, clamps


def _em_steps(block: np.ndarray, x: np.ndarray, lams: np.ndarray, s2s: np.ndarray, sds: np.ndarray,
              scheme: _EMScheme) -> None:
    """The steps of one noise block, one ufunc call per operation; the
    reference for, and the fallback of, the C kernel `sidiff_em_steps`.

    Step j reads the draws in block[j], writes its iterate there before
    the clamp, and clamps x with the ufunc behind np.clip.
    """
    s = scheme
    k, two_k, two, h, sqrt_h, lo, hi, state_drift = s.k, s.two_k, s.two, s.h, s.sqrt_h, s.lo, s.hi, s.state_drift
    # the step is x + drift h + sd logistic sqrt(h) z written in place,
    # with every operation in that expression's order, so the iterates
    # are bit-identical to evaluating it directly; local ufuncs with
    # positional outputs are the cheapest calls
    add, sub, mul, div, clip = np.add, np.subtract, np.multiply, np.true_divide, _clip
    logistic, drift, shock = np.empty(x.shape), np.empty(x.shape), np.empty(x.shape)
    for row, lam, s2, sd in zip(block, _zero_d(lams), _zero_d(s2s), _zero_d(sds)):
        sub(k, x, logistic)
        mul(logistic, x, logistic)
        div(logistic, k, logistic)
        if state_drift:
            mul(x, two, drift)
            sub(k, drift, drift)
            mul(drift, s2, drift)
            div(drift, two_k, drift)
            add(drift, lam, drift)
            mul(drift, logistic, drift)
        else:
            mul(logistic, lam, drift)
        mul(drift, h, drift)
        mul(logistic, sd, shock)
        mul(shock, sqrt_h, shock)
        mul(shock, row, shock)
        add(x, drift, x)
        add(x, shock, row)
        clip(row, lo, hi, x)
