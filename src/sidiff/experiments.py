"""Monte Carlo harness: replicated simulate-then-estimate runs.

A run simulates N independent replicates of d sample paths, fits the
intensity curves on each replicate, and aggregates: error tables,
pointwise mean/sd bands, box-plot statistics and kernel density
summaries of the estimates.

Replicates are independent by construction (per-replicate seed streams
derived from the master seed), so they may execute in parallel; the
aggregation is a deterministic fold in replicate order and the output
is identical however the work was scheduled.

Work is split into chunks of replicates, the unit handed to a worker.
An Euler-Maruyama chunk is simulated as one batch, one vector step for
all its paths, and holds as many replicates as fit EM_CHUNK_BYTES of
path values (three 50 x 5001 replicates in 6 MiB).  Exact-sampler chunks are
single replicates: a cumulative sum has no step loop to share.
Estimation and aggregation stay per replicate, so every output is
the same as simulating and estimating each replicate on its own.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .estimate import estimate_pipeline
from .rates import RatePair, constant, exp_saturating, sinusoid
from .simulate import DRIFT_CORRECTIONS, TimeGrid, _em_replicates, simulate_exact

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "mre",
    "mre_curves",
    "pointwise_band",
    "boxplot_stats",
    "standardize",
    "kde",
    "case_rates",
    "case_config",
    "table1_config",
    "homogeneous_error_rows",
]

SIMULATORS = ("exact", "em")
METHODS = ("GMM", "MLE")

MRE_MIN_TRUTH_DEFAULT = 0.05
KDE_GRID_POINTS = 4096
KDE_CHUNK = 512

# path values of one Euler-Maruyama chunk: three 50 x 5001 replicates;
# larger chunks step faster but raise the peak memory of a run
EM_CHUNK_BYTES = 6 * 2**20
STAGES = ("simulate", "estimate")

# standard synthetic setup shared by the error-table and band runs
STANDARD_CAPACITY = 200.0
STANDARD_X0 = 20.0
STANDARD_GRID = TimeGrid(t0=0.0, delta=0.01, n=5001)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun one experiment bit-for-bit."""

    label: str
    rates: RatePair
    x0: float
    grid: TimeGrid
    n_paths: int = 50
    replicates: int = 100
    master_seed: int = 0
    methods: tuple[str, ...] = ("GMM",)
    stride: int = 1
    simulator: str = "exact"
    em_refine: int = 1
    em_drift_correction: str = "state"
    scalar_window: tuple[float, float] | None = None
    mre_window: tuple[float, float] | None = None
    mre_min_truth: float = MRE_MIN_TRUTH_DEFAULT
    clip_eps: float = 1e-9

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods:
            raise ValueError("methods must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}, expected subset of {METHODS}")
        if "MLE" in self.methods and (
            self.rates.transmission.kind != "constant" or self.rates.noise.kind != "constant"
        ):
            raise ValueError("MLE assumes constant rates; drop it for time-varying truth")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.n_paths < 2:
            raise ValueError("n_paths must be >= 2 (lagged covariance needs two paths)")
        if self.simulator not in SIMULATORS:
            raise ValueError(f"simulator must be one of {SIMULATORS}")
        if self.em_drift_correction not in DRIFT_CORRECTIONS:
            raise ValueError(f"em_drift_correction must be one of {DRIFT_CORRECTIONS}")
        if self.em_refine < 1:
            raise ValueError("em_refine must be >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not (0.0 < self.x0 < self.rates.capacity):
            raise ValueError("x0 must lie strictly inside (0, capacity)")
        for name in ("scalar_window", "mre_window"):
            w = getattr(self, name)
            if w is None:
                continue
            a, b = w
            object.__setattr__(self, name, (float(a), float(b)))
            if not (self.grid.t0 <= a < b <= self.grid.end):
                raise ValueError(f"{name} must satisfy t0 <= a < b <= grid end")

    def resolved_scalar_window(self) -> tuple[float, float]:
        """Summary window for scalar estimates; one time unit in from
        each end unless configured, to keep spline edge effects out."""
        return self._resolved(self.scalar_window, margin=1.0)

    def resolved_mre_window(self) -> tuple[float, float]:
        """Interior window for curve-mode errors (two units in)."""
        return self._resolved(self.mre_window, margin=2.0)

    def _resolved(self, window, margin: float) -> tuple[float, float]:
        if window is not None:
            return window
        a, b = self.grid.t0 + margin, self.grid.end - margin
        if b <= a:
            return self.grid.t0, self.grid.end
        return a, b


@dataclass
class ExperimentReport:
    """Per-replicate estimates and their Monte Carlo aggregates.

    Curves are raw spline derivatives sampled on the observation grid,
    one row per replicate.  Scalar columns come from endpoint
    differences of the integral fits over the scalar window; mle_*
    exist only when the MLE method is enabled.  elapsed_seconds and
    timings (seconds spent per stage, "simulate" and "estimate", summed
    over replicates and workers) are informational and never written
    to data files.
    """

    config: ExperimentConfig
    times: np.ndarray
    lambda_curves: np.ndarray
    sigma2_curves: np.ndarray
    scalar_lambda: np.ndarray
    scalar_sigma2: np.ndarray
    mle_lambda: np.ndarray | None = None
    mle_sigma2: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    timings: dict = field(default_factory=dict)

    def band(self, which: str = "lambda", unbiased: bool = False):
        curves = {"lambda": self.lambda_curves, "sigma2": self.sigma2_curves}[which]
        return pointwise_band(curves, unbiased=unbiased)


def _simulations(config: ExperimentConfig, replicates: range):
    """Lazy per-replicate PathSets: exact draws one replicate per `next`,
    Euler-Maruyama integrates the whole chunk on the first `next`."""
    if config.simulator == "exact":
        return (
            simulate_exact(config.rates, config.x0, config.grid, config.n_paths, config.master_seed, replicate=r)
            for r in replicates
        )
    return _em_replicates(
        config.rates,
        config.x0,
        config.grid,
        config.n_paths,
        config.master_seed,
        replicates,
        refine=config.em_refine,
        drift_correction=config.em_drift_correction,
    )


def _chunk_worker(args: tuple[ExperimentConfig, range]) -> tuple[list[dict], dict]:
    config, replicates = args
    times = config.grid.times
    a, b = config.resolved_scalar_window()
    k = config.rates.capacity
    timings = dict.fromkeys(STAGES, 0.0)
    simulations = _simulations(config, replicates)
    rows = []
    for r in replicates:
        try:
            started = time.perf_counter()
            paths = next(simulations)
            simulated = time.perf_counter()
            result = estimate_pipeline(
                paths,
                stride=config.stride,
                clip_eps=config.clip_eps,
                with_mle="MLE" in config.methods,
            )
            timings["simulate"] += simulated - started
            timings["estimate"] += time.perf_counter() - simulated
        except Exception as exc:
            raise RuntimeError(f"replicate {r} failed: {exc}") from exc
        rows.append(
            {
                "lambda_curve": np.asarray(result.lambda_hat(times), dtype=float),
                "sigma2_curve": np.asarray(result.sigma2_hat_raw(times), dtype=float),
                "scalar_lambda": result.avg_lambda_hat(a, b),
                "scalar_sigma2": result.avg_sigma2_hat(a, b),
                "mle": result.mle,
                "clip_count": result.diagnostics["clip_count"],
                "negative_noise_fraction": result.diagnostics["negative_noise_fraction"],
                "low_confidence_boundary": result.diagnostics["low_confidence_boundary"],
                "clamp_count": paths.meta.get("clamp_count", 0),
                "saturation_fraction": float(np.mean(paths.values[:, -1] > 0.99 * k)),
            }
        )
    return rows, timings


def _chunks(config: ExperimentConfig) -> list[range]:
    """Replicate index ranges, one per worker task.  Euler-Maruyama
    chunks fill EM_CHUNK_BYTES of path values; exact runs go one
    replicate at a time, having no step loop to share."""
    size = 1
    if config.simulator == "em":
        size = max(1, EM_CHUNK_BYTES // (8 * config.n_paths * config.grid.n))
    return [range(lo, min(lo + size, config.replicates)) for lo in range(0, config.replicates, size)]


def run_experiment(config: ExperimentConfig, max_workers: int = 1) -> ExperimentReport:
    """Simulate and estimate all replicates; aggregate in replicate order.

    Replicates run in chunks (see `_chunks`); max_workers > 1 spreads
    the chunks over processes.  Seeds are keyed by replicate index and
    the Euler-Maruyama batch is elementwise, so the report does not
    depend on the chunking or the schedule.  A failure is raised as
    RuntimeError naming the first failing replicate.
    """
    started = time.perf_counter()
    jobs = [(config, replicates) for replicates in _chunks(config)]
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(_chunk_worker, jobs, chunksize=1))
    else:
        results = [_chunk_worker(job) for job in jobs]
    rows = [row for chunk_rows, _ in results for row in chunk_rows]
    timings = {stage: sum(chunk_timings[stage] for _, chunk_timings in results) for stage in STAGES}

    n_rep = config.replicates
    with_mle = "MLE" in config.methods
    report = ExperimentReport(
        config=config,
        times=config.grid.times,
        lambda_curves=np.stack([row["lambda_curve"] for row in rows]),
        sigma2_curves=np.stack([row["sigma2_curve"] for row in rows]),
        scalar_lambda=np.array([row["scalar_lambda"] for row in rows]),
        scalar_sigma2=np.array([row["scalar_sigma2"] for row in rows]),
        mle_lambda=np.array([row["mle"][0] for row in rows]) if with_mle else None,
        mle_sigma2=np.array([row["mle"][1] for row in rows]) if with_mle else None,
        diagnostics={
            "clip_count_total": int(sum(row["clip_count"] for row in rows)),
            "clamp_count_total": int(sum(row["clamp_count"] for row in rows)),
            "negative_noise_fraction_mean": float(
                np.mean([row["negative_noise_fraction"] for row in rows])
            ),
            "low_confidence_replicates": int(
                sum(row["low_confidence_boundary"] for row in rows)
            ),
            "saturation_fraction_mean": float(
                np.mean([row["saturation_fraction"] for row in rows])
            ),
            "replicates": n_rep,
        },
        elapsed_seconds=time.perf_counter() - started,
        timings=timings,
    )
    return report


def mre(estimates, truth: float) -> float:
    """Mean relative error of scalar estimates: mean |est - truth| / |truth|."""
    estimates = np.asarray(estimates, dtype=float)
    if truth == 0.0:
        raise ValueError("scalar MRE is undefined for truth == 0")
    return float(np.mean(np.abs(estimates - truth) / abs(truth)))


def mre_curves(
    curves: np.ndarray,
    times: np.ndarray,
    truth_values: np.ndarray,
    window: tuple[float, float],
    min_truth: float = MRE_MIN_TRUTH_DEFAULT,
) -> float:
    """Curve-mode mean relative error.

    Each replicate curve contributes its time average of
    |est(t) - truth(t)| / |truth(t)| over grid points inside `window`
    with |truth(t)| >= min_truth (relative error is meaningless near
    zeros of the truth); the result is the replicate mean.
    """
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    times = np.asarray(times, dtype=float)
    truth_values = np.asarray(truth_values, dtype=float)
    a, b = window
    mask = (times >= a) & (times <= b) & (np.abs(truth_values) >= min_truth)
    if not np.any(mask):
        raise ValueError("no usable grid points: window too narrow or truth too small")
    rel = np.abs(curves[:, mask] - truth_values[mask]) / np.abs(truth_values[mask])
    return float(rel.mean(axis=1).mean())


def pointwise_band(curves: np.ndarray, unbiased: bool = False):
    """Pointwise mean and sd over replicate curves, plus mean +- sd.

    The sd divides by N (population form) to match the convention of
    the replicated-experiment summaries this feeds; unbiased=True
    switches to N-1.
    """
    curves = np.asarray(curves, dtype=float)
    if curves.ndim != 2 or curves.shape[0] < 2:
        raise ValueError("need a (replicates, grid) array with at least 2 replicates")
    mean = curves.mean(axis=0)
    sd = curves.std(axis=0, ddof=1 if unbiased else 0)
    return mean, sd, mean - sd, mean + sd


def boxplot_stats(values) -> dict:
    """Five-number summary with 1.5 IQR outlier detection.

    Quartiles use linear interpolation of order statistics; whiskers
    reach the most extreme observations inside the 1.5 IQR fences, and
    everything outside is listed in `outliers`.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 5:
        raise ValueError("boxplot statistics need at least 5 values")
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_fence, hi_fence = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    outliers = values[(values < lo_fence) | (values > hi_fence)]
    return {
        "min": float(inside.min()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(inside.max()),
        "outliers": sorted(float(v) for v in outliers),
    }


def standardize(values) -> np.ndarray:
    """Center and scale to unit sample sd (ddof=1)."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("standardization needs at least 2 values")
    sd = values.std(ddof=1)
    if sd == 0.0:
        raise ValueError("cannot standardize zero-variance values")
    return (values - values.mean()) / sd


def kde(values, n_grid: int = KDE_GRID_POINTS) -> tuple[np.ndarray, np.ndarray, float]:
    """Gaussian kernel density with the Silverman bandwidth.

    bandwidth = 0.9 * min(sd, IQR / 1.34) * N^(-1/5); the evaluation
    grid spans the data range extended by 5 bandwidths, wide enough
    that the density integrates to 1 within 1e-6.  Returns
    (grid, density, bandwidth).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 10:
        raise ValueError("kernel density needs at least 10 values")
    sd = values.std(ddof=1)
    iqr = float(np.subtract(*np.percentile(values, [75.0, 25.0])))
    bw = 0.9 * min(sd, iqr / 1.34) * n ** (-0.2)
    if not bw > 0.0:
        raise ValueError("kernel density needs spread-out input (zero variance or zero IQR)")
    grid = np.linspace(values.min() - 5.0 * bw, values.max() + 5.0 * bw, n_grid)
    density = np.zeros(n_grid)
    for start in range(0, n, KDE_CHUNK):
        chunk = values[start : start + KDE_CHUNK]
        z = (grid[:, None] - chunk[None, :]) / bw
        density += np.exp(-0.5 * z * z).sum(axis=1)
    density /= n * bw * np.sqrt(2.0 * np.pi)
    return grid, density, float(bw)


def case_rates(name: str, capacity: float = STANDARD_CAPACITY) -> RatePair:
    """The three time-varying benchmark setups.

      a: transmission 0.4 + sin t, noise 0.1
      b: transmission 0.4 + sin t, noise 0.1 + 0.01 (1 - e^(-2t))^2
      c: transmission 0.4,         noise 0.012 + 0.01 sin t
    """
    name = name.lower()
    if name == "a":
        return RatePair(sinusoid(0.4, 1.0, 1.0), constant(0.1), capacity)
    if name == "b":
        return RatePair(sinusoid(0.4, 1.0, 1.0), exp_saturating(0.1, 0.01, 2.0), capacity)
    if name == "c":
        return RatePair(constant(0.4), sinusoid(0.012, 0.01, 1.0), capacity)
    raise ValueError(f"unknown case {name!r}, expected 'a', 'b' or 'c'")


def case_config(
    name: str,
    *,
    n_paths: int = 50,
    replicates: int = 100,
    master_seed: int = 20260819,
    stride: int = 10,
    grid: TimeGrid | None = None,
) -> ExperimentConfig:
    """Standard band-figure run for one benchmark case.

    stride=10 keeps one moment knot per 0.1 time units: dense enough
    for the slowest feature (period 2 pi), sparse enough that the
    derivative of the variance fit is not dominated by sampling noise.
    """
    return ExperimentConfig(
        label=f"case_{name.lower()}",
        rates=case_rates(name),
        x0=STANDARD_X0,
        grid=grid if grid is not None else STANDARD_GRID,
        n_paths=n_paths,
        replicates=replicates,
        master_seed=master_seed,
        methods=("GMM",),
        stride=stride,
    )


def table1_config(
    transmission: float,
    noise: float,
    *,
    n_paths: int = 50,
    replicates: int = 100,
    master_seed: int = 20260819,
    stride: int = 10,
    simulator: str = "em",
    em_drift_correction: str = "constant",
    grid: TimeGrid | None = None,
) -> ExperimentConfig:
    """Homogeneous-rates error-table run for one (transmission, noise) row.

    Default simulator is Euler-Maruyama at the observation step with
    the constant Ito correction: the scheme the reference error tables
    were produced with.  Pass simulator="exact" for the unbiased law.
    """
    return ExperimentConfig(
        label=f"table1_lam{transmission:g}_s2{noise:g}",
        rates=RatePair(constant(transmission), constant(noise), STANDARD_CAPACITY),
        x0=STANDARD_X0,
        grid=grid if grid is not None else STANDARD_GRID,
        n_paths=n_paths,
        replicates=replicates,
        master_seed=master_seed,
        methods=("GMM", "MLE"),
        stride=stride,
        simulator=simulator,
        em_drift_correction=em_drift_correction,
    )


def homogeneous_error_rows(report: ExperimentReport) -> list[dict]:
    """Error-table rows (one per enabled method) for a constant-rate run."""
    config = report.config
    if config.rates.transmission.kind != "constant" or config.rates.noise.kind != "constant":
        raise ValueError("error-table rows need constant-rate truth")
    lam = config.rates.transmission.params["value"]
    s2 = config.rates.noise.params["value"]
    rows = []
    if report.mle_lambda is not None:
        rows.append(
            {
                "case": config.label,
                "method": "MLE",
                "lambda_true": lam,
                "sigma2_true": s2,
                "mre_lambda": mre(report.mle_lambda, lam),
                "mre_sigma2": mre(report.mle_sigma2, s2),
            }
        )
    rows.append(
        {
            "case": config.label,
            "method": "GMM",
            "lambda_true": lam,
            "sigma2_true": s2,
            "mre_lambda": mre(report.scalar_lambda, lam),
            "mre_sigma2": mre(report.scalar_sigma2, s2),
        }
    )
    return rows
