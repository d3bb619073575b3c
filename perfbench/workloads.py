"""The four benchmark workloads.

Each workload derives every op's master seed from the run seed, runs
one op as a chain of public sidiff calls, and checks the op's output
against the paper's acceptance criteria.  Library calls go through
module attributes (``experiments.run_experiment``, not a name bound at
import), so the traced run sees them.

Why these four (see README.md for the per-layer predictions):

  table1_em           criterion-1 Euler-Maruyama error-table rows: the
                      per-step loop in simulate_em is nearly all of it,
                      the main target of replicate batching.
  bands_exact         exact-sampler band runs: the cost is spread over
                      simulate_exact, the estimate pipeline and
                      aggregation, with no per-step loop to hide behind.
  incidence_forecast  a synthetic surveillance table fitted and forecast:
                      the only workload where tabulated-rate quadrature
                      and Gauss-Hermite moments do real work.
  paths_cli           a 50 x 5001 path bundle through `sidiff simulate`
                      and `sidiff estimate`: CSV save/load and the CLI.

Op i uses row noise i mod 2 and band case i mod 3.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import sidiff.cli as cli
import sidiff.dataio as dataio
import sidiff.experiments as experiments
import sidiff.model as model
import sidiff.rates as rates
import sidiff.synthetic as synthetic


def op_seed(seed: int, workload: str, index: int) -> int:
    """Master seed of op `index`: a 31-bit hash of (workload, run seed, index)."""
    digest = hashlib.sha256(f"{workload}:{int(seed)}:{int(index)}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


class Workload:
    """One closed-loop workload: `op` is timed, `check` is not."""

    name = ""
    units_per_op = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = int(seed)
        self.out_dir = os.path.join(out_dir, self.name)
        os.makedirs(self.out_dir, exist_ok=True)

    def master_seed(self, index: int) -> int:
        return op_seed(self.seed, self.name, index)

    def path(self, filename: str) -> str:
        return os.path.join(self.out_dir, filename)

    def sizes(self) -> dict:
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> list[str]:
        """Problems found in an op's output; empty when it passes."""
        raise NotImplementedError


def _grid(grid) -> list:
    return [grid.t0, grid.delta, grid.n]


class Table1Em(Workload):
    """One criterion-1 error-table row per op, R replicates."""

    name = "table1_em"
    replicates = 20
    units_per_op = replicates
    transmission = 0.4
    noises = (0.05, 0.1)
    # criterion 1 of the acceptance tests: each lambda MRE lies within a
    # factor of two of these reference levels
    reference_lambda_mre = {0.05: {"MLE": 0.113, "GMM": 0.110}, 0.1: {"MLE": 0.225, "GMM": 0.223}}

    def sizes(self) -> dict:
        return {
            "replicates": self.replicates,
            "paths": 50,
            "grid": _grid(experiments.STANDARD_GRID),
            "stride": 10,
            "simulator": "em",
            "noises": list(self.noises),
        }

    def op(self, index: int):
        seed = self.master_seed(index)
        noise = self.noises[index % len(self.noises)]
        config = experiments.table1_config(self.transmission, noise, replicates=self.replicates, master_seed=seed)
        report = experiments.run_experiment(config)
        rows = experiments.homogeneous_error_rows(report)
        payload = {"transmission": self.transmission, "noise": noise, "replicates": self.replicates}
        dataio.write_table1(rows, self.path("table1.csv"), payload=payload, seed=seed)
        dataio.write_boxplot([report], self.path("boxplot.csv"), seed=seed)
        dataio.write_kde([report], self.path("kde.csv"), seed=seed)
        return report, rows

    def check(self, index: int, output) -> list[str]:
        report, rows = output
        problems = []
        for field in ("scalar_lambda", "scalar_sigma2", "mle_lambda", "mle_sigma2"):
            if not np.all(np.isfinite(getattr(report, field))):
                problems.append(f"{field} has non-finite entries")
        noise = report.config.rates.noise.params["value"]
        by_method = {row["method"]: row for row in rows}
        for method, reference in self.reference_lambda_mre[noise].items():
            ratio = by_method[method]["mre_lambda"] / reference
            if not 0.5 <= ratio <= 2.0:
                problems.append(f"{method} lambda MRE is {ratio:.3f} x reference, outside [0.5, 2]")
        if not by_method["MLE"]["mre_sigma2"] < by_method["GMM"]["mre_sigma2"]:
            problems.append("MLE sigma2 MRE is not below GMM sigma2 MRE")
        return problems


class BandsExact(Workload):
    """One band run per op, R replicates, cycling through cases a, b and c."""

    name = "bands_exact"
    replicates = 20
    units_per_op = replicates
    cases = ("a", "b", "c")
    window = (2.0, 48.0)

    def sizes(self) -> dict:
        return {
            "replicates": self.replicates,
            "paths": 50,
            "grid": _grid(experiments.STANDARD_GRID),
            "stride": 10,
            "simulator": "exact",
            "cases": list(self.cases),
        }

    def op(self, index: int):
        config = experiments.case_config(
            self.cases[index % len(self.cases)], replicates=self.replicates, master_seed=self.master_seed(index)
        )
        report = experiments.run_experiment(config)
        dataio.write_bands(report, self.path(f"bands_{config.label}.csv"))
        return report

    def check(self, index: int, report) -> list[str]:
        # criterion 2 on every case; criterion 3's lambda average on case c
        # (its sigma2 RMSE bound needs about 100 replicates, not a per-op check)
        times = report.times
        truth = np.asarray(rates.evaluate(report.config.rates.transmission, times), dtype=float)
        mean, _, lower, upper = experiments.pointwise_band(report.lambda_curves)
        mask = (times >= self.window[0]) & (times <= self.window[1])
        rmse = float(np.sqrt(np.mean((mean[mask] - truth[mask]) ** 2)))
        coverage = float(np.mean((lower[mask] <= truth[mask]) & (truth[mask] <= upper[mask])))
        label = report.config.label
        problems = []
        if not rmse < 0.15:
            problems.append(f"{label}: lambda band RMSE {rmse:.4f} >= 0.15")
        if not coverage >= 0.90:
            problems.append(f"{label}: band coverage {coverage:.3f} < 0.90")
        if label == "case_c":
            average = float(mean[mask].mean())
            if not abs(average - 0.4) < 0.05:
                problems.append(f"case_c: lambda window average {average:.4f} not within 0.05 of 0.4")
        return problems


class IncidenceForecast(Workload):
    """One synthetic surveillance table fitted and forecast per op.

    The table goes through its CSV form (save_raw_series, load_csv), the
    way `sidiff analyze` reads real counts.
    """

    name = "incidence_forecast"
    horizons = 20
    states = 63

    def sizes(self) -> dict:
        return {
            "locations": synthetic.N_LOCATIONS,
            "intervals": synthetic.N_TIMES,
            "stride": 1,
            "horizons": self.horizons,
            "states": self.states,
        }

    def op(self, index: int):
        seed = self.master_seed(index)
        capacity = synthetic.CAPACITY
        table = synthetic.measles_like_table(master_seed=seed)
        counts, populations = self.path("counts.csv"), self.path("populations.csv")
        dataio.save_raw_series(table, counts, populations)
        table = dataio.load_csv(counts, populations)
        paths, estimate = dataio.analyze_series(table, dataio.AnalysisConfig(capacity=capacity))
        dataio.save_estimate(estimate, self.path("estimate.csv"), capacity=capacity, seed=seed)

        lam, s2 = estimate.mle
        pair = rates.RatePair(rates.constant(lam), rates.constant(s2), capacity)
        grid = paths.grid
        law = model.TransitionLaw(pair, float(paths.values[:, 0].mean()), grid.t0)
        horizons = grid.t0 + (grid.end - grid.t0) * np.arange(1, self.horizons + 1) / self.horizons
        states = capacity * np.arange(1, self.states + 1) / (self.states + 1)
        m1 = np.array([model.conditional_moment(law, 1, t) for t in horizons])
        m2 = np.array([model.conditional_moment(law, 2, t) for t in horizons])
        median = np.array([model.conditional_median(law, t) for t in horizons])
        cdf = np.array([model.transition_cdf(law, states, t) for t in horizons])
        return paths, estimate, m1, m2, median, cdf

    def check(self, index: int, output) -> list[str]:
        paths, estimate, m1, m2, median, cdf = output
        capacity = paths.capacity
        problems = []
        # criterion 7's transmission signature (11.7 or more over 8000
        # tables).  Its noise half, raw sigma2 tail below its start, fails
        # on about 0.3% of 20-location tables from sampling noise alone,
        # so like criterion 3's sigma2 RMSE it is not a per-op check.
        times = paths.grid.times
        lam = estimate.lambda_hat(times)
        n = times.size
        ratio = float(lam[: max(2, n // 10)].mean() / lam[n - n // 3 :].mean())
        if not ratio >= 5.0:
            problems.append(f"lambda initial/final ratio {ratio:.2f} < 5")
        if not (np.all(m1 > 0.0) and np.all(m1 < capacity)):
            problems.append("first moment outside (0, K)")
        if not (np.all(m2 > 0.0) and np.all(m2 < capacity**2)):
            problems.append("second moment outside (0, K^2)")
        if not np.all(m2 >= m1**2):
            problems.append("second moment below the squared first moment")
        if not (np.all(median > 0.0) and np.all(median < capacity)):
            problems.append("median outside (0, K)")
        if not (np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.diff(cdf, axis=1) >= 0.0)):
            problems.append("cdf outside [0, 1] or decreasing in the state")
        return problems


class PathsCli(Workload):
    """`sidiff simulate` then `sidiff estimate` on its output, in-process, per op."""

    name = "paths_cli"
    cli_rates = (0.4, 0.1)
    cli_capacity = 200.0
    cli_x0 = 20.0
    cli_span = 50.0
    cli_delta = 0.01
    cli_paths = 50
    cli_stride = 10

    def __init__(self, seed: int, out_dir: str):
        super().__init__(seed, out_dir)
        self.config = self.path("rates.json")
        transmission, noise = self.cli_rates
        with open(self.config, "w") as handle:
            json.dump(
                {
                    "transmission": rates.rate_to_dict(rates.constant(transmission)),
                    "noise": rates.rate_to_dict(rates.constant(noise)),
                },
                handle,
            )

    def sizes(self) -> dict:
        return {
            "paths": self.cli_paths,
            "grid": [0.0, self.cli_delta, int(round(self.cli_span / self.cli_delta)) + 1],
            "stride": self.cli_stride,
            "simulator": "exact",
        }

    def op(self, index: int):
        seed = self.master_seed(index)
        bundle, estimate = self.path("paths.csv"), self.path("paths_estimate.csv")
        simulate_args = [
            "simulate", "--config", self.config, "--x0", repr(self.cli_x0), "--K", repr(self.cli_capacity),
            "--T", repr(self.cli_span), "--delta", repr(self.cli_delta), "--paths", str(self.cli_paths),
            "--seed", str(seed), "--out", bundle,
        ]  # fmt: skip
        estimate_args = [
            "estimate", "--in", bundle, "--K", repr(self.cli_capacity),
            "--stride", str(self.cli_stride), "--out", estimate,
        ]  # fmt: skip
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (cli.main(simulate_args), cli.main(estimate_args))
        return codes, estimate

    def check(self, index: int, output) -> list[str]:
        codes, estimate = output
        if codes != (0, 0):
            return [f"exit codes {codes}, expected (0, 0)"]
        with open(estimate + ".meta.json") as handle:
            fitted = json.load(handle)["mle"]
        problems = []
        for label, got, truth in zip(("transmission", "noise"), fitted, self.cli_rates):
            if not abs(got - truth) <= 0.1 * truth:
                problems.append(f"MLE {label} {got:.4f} not within 10% of {truth}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Table1Em, BandsExact, IncidenceForecast, PathsCli)}
