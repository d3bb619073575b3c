"""Monte Carlo harness: replicated simulate-then-estimate runs.

A run simulates N independent replicates of d sample paths, fits the
intensity curves on each replicate, and aggregates: error tables,
pointwise mean/sd bands, box-plot statistics and kernel density
summaries of the estimates.

The paper's simulation studies are one standard run, STANDARD_RUN, on
constant rates (table1_config: GMM against the MLE) and on periodic
ones (case_config: bands); `sidiff experiment` builds with those two.

Replicates are independent by construction (per-replicate seed streams
derived from the master seed), and the aggregation is a deterministic
fold in replicate order, so the output does not depend on how the
replicates are grouped.

Replicates run one after another from one simulation stream per run.
The exact stream checks the rate window and builds its increment
tables once, then draws each replicate in the Gaussian coordinate,
where it stays from draw to estimate.  The Euler-Maruyama stream checks
its arguments and tabulates its per-step rates once, then integrates
one replicate per `next`.  Estimation is per replicate: it writes the
replicate's two curve rows into the report's arrays, which are
allocated once, and returns a record of its scalars, which the run
stacks and folds once at the end.  So every output is the same as
simulating and estimating each replicate on its own.  A run's peak
memory is one replicate with its noise buffer plus its estimate, which
holds the transformed paths and one other array of their size at a
time.  An Euler-Maruyama replicate lies in the clamp band already, so
model.x_to_y maps it over its own values, unclipped, and only the other
array is new.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .estimate import estimate_pipeline
from .rates import RatePair, _whole_number, constant, exp_saturating, sinusoid
from .model import _check_state, x_to_y, y_to_x
from .simulate import DRIFT_CORRECTIONS, TimeGrid, _check_em_start, _em_replicates, _exact_replicates

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
# Euler-Maruyama internal steps per observation step in a run
EM_REFINE = 1

MRE_MIN_TRUTH_DEFAULT = 0.05
KDE_GRID_POINTS = 4096
KDE_MIN_VALUES = 10  # kde's minimum; boxplot_stats needs only 5
BAND_MIN_REPLICATES = 2  # pointwise_band's minimum
KDE_CHUNK = 512
STAGES = ("simulate", "estimate")
# the report's per-replicate (lambda, sigma2) columns of each method
METHOD_COLUMNS = {"GMM": ("scalar_lambda", "scalar_sigma2"), "MLE": ("mle_lambda", "mle_sigma2")}
# each per-replicate diagnostic: its report.diagnostics total and the fold that makes it
DIAGNOSTIC_TOTALS = {
    "clamp_count": ("clamp_count_total", lambda v: int(v.sum())),
    "negative_noise_fraction": ("negative_noise_fraction_mean", lambda v: float(v.mean())),
    "low_confidence_boundary": ("low_confidence_replicates", lambda v: int(np.count_nonzero(v))),
    "saturation_fraction": ("saturation_fraction_mean", lambda v: float(v.mean())),
}
# one replicate's scalars; the MLE pair is None where the run does not fit it
_Record = namedtuple("_Record", [*DIAGNOSTIC_TOTALS, *STAGES, *METHOD_COLUMNS["GMM"], *METHOD_COLUMNS["MLE"]],
                     defaults=(None, None))

# the standard run of the error-table rows and the band cases
STANDARD_CAPACITY = 200.0
STANDARD_X0 = 20.0
STANDARD_GRID = TimeGrid(t0=0.0, delta=0.01, n=5001)
STANDARD_RUN = dict(x0=STANDARD_X0, grid=STANDARD_GRID, n_paths=50, replicates=100, master_seed=20260819, stride=10)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun one experiment bit-for-bit.

    `methods` is not set but derived from the true rates: the
    homogeneous MLE runs next to GMM exactly when both rates are
    constant, the only case where it targets them.  Euler-Maruyama runs
    step at the observation step (EM_REFINE), and their x0 and capacity
    are refused here as simulate_em refuses them.
    """

    label: str
    rates: RatePair
    x0: float
    grid: TimeGrid
    n_paths: int = STANDARD_RUN["n_paths"]
    replicates: int = STANDARD_RUN["replicates"]
    master_seed: int = STANDARD_RUN["master_seed"]
    stride: int = STANDARD_RUN["stride"]
    simulator: str = "exact"
    em_drift_correction: str = "state"

    def __post_init__(self) -> None:
        # n_paths >= 2: the lagged covariance needs two paths
        for name, least in (("n_paths", 2), ("replicates", 1), ("master_seed", 0), ("stride", 1)):
            _whole_number(getattr(self, name), name, least)
        if self.simulator not in SIMULATORS:
            raise ValueError(f"simulator must be one of {SIMULATORS}")
        if self.em_drift_correction not in DRIFT_CORRECTIONS:
            raise ValueError(f"em_drift_correction must be one of {DRIFT_CORRECTIONS}")
        _check_state(self.x0, self.rates.capacity, "x0")
        if self.simulator == "em":
            _check_em_start(self.x0, self.rates.capacity)

    @property
    def methods(self) -> tuple[str, ...]:
        """("GMM", "MLE") when both true rates are constant, else ("GMM",)."""
        if self.rates.transmission.kind == "constant" and self.rates.noise.kind == "constant":
            return ("GMM", "MLE")
        return ("GMM",)

    def resolved_scalar_window(self) -> tuple[float, float]:
        """Summary window for scalar estimates: one time unit in from
        each end, to keep spline edge effects out."""
        a, b = self.grid.t0 + 1.0, self.grid.end - 1.0
        if b <= a:
            return self.grid.t0, self.grid.end
        return a, b


@dataclass
class ExperimentReport:
    """Per-replicate estimates and their Monte Carlo aggregates.

    Curves are raw spline derivatives sampled on the observation grid,
    one row per replicate.  Scalar columns come from endpoint
    differences of the integral fits over the scalar window; mle_* exist
    only when both true rates are constant (`config.methods`).  The
    scalar columns, the `diagnostics` folds (DIAGNOSTIC_TOTALS) and the
    timings (seconds per stage, summed over replicates) are stacked from
    the replicates' records once the run ends.  elapsed_seconds and
    timings are informational and never written to data files.
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

    def scalar_estimates(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per-replicate (lambda, sigma2) estimates of each method, in `config.methods` order."""
        return {method: tuple(getattr(self, c) for c in METHOD_COLUMNS[method]) for method in self.config.methods}


def _simulations(config: ExperimentConfig):
    """Lazy per-replicate PathSets of the whole run, one per `next`: exact draws in Y, Euler-Maruyama paths in X."""
    args = (config.rates, config.x0, config.grid, config.n_paths, config.master_seed, range(config.replicates))
    if config.simulator == "exact":
        return _exact_replicates(*args)
    return _em_replicates(*args, refine=EM_REFINE, drift_correction=config.em_drift_correction)


def _run_replicate(config: ExperimentConfig, r: int, simulations, lambda_curves, sigma2_curves) -> _Record:
    """Draw replicate r from `simulations` and estimate it.  Writes row
    r of the two curve arrays and returns the replicate's record.  The
    replicate's paths are freed when this returns, before the next
    replicate is drawn."""
    k = config.rates.capacity
    try:
        started = time.perf_counter()
        paths = next(simulations)
        simulated = time.perf_counter()
        if paths.space == "X":
            x = paths.values
            saturation = np.mean(x[:, -1] > 0.99 * k)
            # an Euler-Maruyama replicate lies in the clamp band, where transform_paths
            # clips nothing; its Y paths go over its X values, not read again
            paths = replace(paths, values=x_to_y(x, x[:, :1].copy(), k, out=x), space="Y")
        else:
            saturation = np.mean(y_to_x(paths.values[:, -1], config.x0, k) > 0.99 * k)
        result = estimate_pipeline(paths, stride=config.stride, with_mle="MLE" in config.methods)
        seconds = {"simulate": simulated - started, "estimate": time.perf_counter() - simulated}
    except Exception as exc:
        raise RuntimeError(f"replicate {r} failed: {exc}") from exc
    a, b = config.resolved_scalar_window()
    lambda_curves[r] = result.lambda_grid
    sigma2_curves[r] = result.sigma2_grid
    estimates = {"GMM": (result.avg_lambda_hat(a, b), result.avg_sigma2_hat(a, b)), "MLE": result.mle}
    found = {**result.diagnostics, "clamp_count": paths.meta.get("clamp_count", 0), "saturation_fraction": saturation}
    record = {name: found[name] for name in DIAGNOSTIC_TOTALS} | seconds
    for method in config.methods:
        record.update(zip(METHOD_COLUMNS[method], estimates[method]))
    return _Record(**record)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Simulate and estimate all replicates, in order, from one stream.

    Seeds are keyed by replicate index, so each replicate's paths are
    those it would have alone.  A failure is raised as RuntimeError
    naming the first failing replicate.
    """
    started = time.perf_counter()
    shape = (config.replicates, config.grid.n)
    lambda_curves, sigma2_curves = np.empty(shape), np.empty(shape)
    simulations = _simulations(config)
    records = [_run_replicate(config, r, simulations, lambda_curves, sigma2_curves) for r in range(config.replicates)]
    columns = dict(zip(_Record._fields, zip(*records)))
    totals = {total: fold(np.array(columns[name])) for name, (total, fold) in DIAGNOSTIC_TOTALS.items()}
    return ExperimentReport(
        config=config,
        times=config.grid.times,
        lambda_curves=lambda_curves,
        sigma2_curves=sigma2_curves,
        **{column: np.array(columns[column]) for method in config.methods for column in METHOD_COLUMNS[method]},
        diagnostics=totals | {"replicates": config.replicates},
        elapsed_seconds=time.perf_counter() - started,
        timings={stage: sum(columns[stage]) for stage in STAGES},
    )


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
    if curves.ndim != 2 or curves.shape[0] < BAND_MIN_REPLICATES:
        raise ValueError(f"need a (replicates, grid) array with at least {BAND_MIN_REPLICATES} replicates")
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


def kde(values) -> tuple[np.ndarray, np.ndarray, float]:
    """Gaussian kernel density with the Silverman bandwidth.

    bandwidth = 0.9 * min(sd, IQR / 1.34) * N^(-1/5); the evaluation
    grid of KDE_GRID_POINTS points spans the data range extended by 5
    bandwidths, wide enough that the density integrates to 1 within
    1e-6.  Returns (grid, density, bandwidth).
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < KDE_MIN_VALUES:
        raise ValueError(f"kernel density needs at least {KDE_MIN_VALUES} values")
    sd = values.std(ddof=1)
    iqr = float(np.subtract(*np.percentile(values, [75.0, 25.0])))
    bw = 0.9 * min(sd, iqr / 1.34) * n ** (-0.2)
    if not bw > 0.0:
        raise ValueError("kernel density needs spread-out input (zero variance or zero IQR)")
    grid = np.linspace(values.min() - 5.0 * bw, values.max() + 5.0 * bw, KDE_GRID_POINTS)
    density = np.zeros(KDE_GRID_POINTS)
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


def case_config(name: str, **settings) -> ExperimentConfig:
    """STANDARD_RUN of one benchmark case; the keywords n_paths, replicates,
    master_seed, stride and grid (None: the standard grid) replace its own.

    Stride 10 keeps one moment knot per 0.1 time units: dense enough
    for the slowest feature (period 2 pi), sparse enough that the
    derivative of the variance fit is not dominated by sampling noise.
    """
    return _standard_config(f"case_{name.lower()}", case_rates(name), settings)


def table1_config(
    transmission: float, noise: float, *, simulator: str = "em", em_drift_correction: str = "constant", **settings
) -> ExperimentConfig:
    """STANDARD_RUN of one constant-rate error-table row; takes case_config's keywords too.

    Default simulator is Euler-Maruyama at the observation step with
    the constant Ito correction: the scheme the reference error tables
    were produced with.  Pass simulator="exact" for the unbiased law.
    """
    rates = RatePair(constant(transmission), constant(noise), STANDARD_CAPACITY)
    return _standard_config(
        f"table1_lam{transmission:g}_s2{noise:g}", rates, settings,
        simulator=simulator, em_drift_correction=em_drift_correction,
    )


def _standard_config(label: str, rates: RatePair, settings: dict, **scheme) -> ExperimentConfig:
    """STANDARD_RUN of `rates`, with `settings` in place of any of its entries but x0."""
    unexpected = sorted(settings.keys() - (STANDARD_RUN.keys() - {"x0"}))
    if unexpected:
        raise TypeError(f"unexpected keyword argument {unexpected[0]!r}")
    run = STANDARD_RUN | settings
    if run["grid"] is None:
        run["grid"] = STANDARD_GRID
    return ExperimentConfig(label=label, rates=rates, **run, **scheme)


def homogeneous_error_rows(report: ExperimentReport) -> list[dict]:
    """Error-table rows (one per enabled method) for a constant-rate run."""
    config = report.config
    if "MLE" not in config.methods:
        raise ValueError("error-table rows need constant-rate truth")
    lam = config.rates.transmission.params["value"]
    s2 = config.rates.noise.params["value"]
    # table1.csv lists the MLE row first
    return [
        {
            "case": config.label,
            "method": method,
            "lambda_true": lam,
            "sigma2_true": s2,
            "mre_lambda": mre(lam_hat, lam),
            "mre_sigma2": mre(s2_hat, s2),
        }
        for method, (lam_hat, s2_hat) in reversed(report.scalar_estimates().items())
    ]
