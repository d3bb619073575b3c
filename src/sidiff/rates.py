"""Time-dependent rate curves: evaluation and exact integrals.

A RateFunction is one of four kinds:

    constant        f(t) = value
    sinusoid        f(t) = offset + amplitude * sin(omega * t + phase)
    exp_saturating  f(t) = offset + scale * (1 - exp(-rate * t)) ** 2
    tabulated       natural cubic spline through (times, values) knots

Every kind has an exact antiderivative: the three analytic kinds in
closed form, tabulated kinds as the spline's own antiderivative (a
piecewise quartic).  `cumulative` evaluates it on an array of times,
and every integral in the package (`integrate`, `increment_table`,
the model's accumulated growth) is a difference of its values, so no
quadrature enters anywhere.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .spline import NaturalSpline

__all__ = [
    "RateFunction",
    "RatePair",
    "constant",
    "sinusoid",
    "exp_saturating",
    "tabulated",
    "evaluate",
    "integrate",
    "increment_table",
    "cumulative",
    "check_window",
    "rate_to_dict",
    "rate_from_dict",
    "pair_to_dict",
    "pair_from_dict",
]

KINDS = ("constant", "sinusoid", "exp_saturating", "tabulated")

_PARAM_KEYS = {
    "constant": ("value",),
    "sinusoid": ("offset", "amplitude", "omega", "phase"),
    "exp_saturating": ("offset", "scale", "rate"),
    "tabulated": ("times", "values"),
}


@dataclass(frozen=True, eq=False)
class RateFunction:
    """One scalar rate curve.  Treated as immutable after construction.

    The only validator of rate descriptors: the kind must be known and
    the param keys must be exactly the kind's.  Analytic params must be
    finite numbers (numpy scalars too; bools and strings are refused)
    and are stored as floats.  Tabulated times and values must be
    lists, tuples or 1-d arrays of such numbers, of one length of at
    least 2, with strictly increasing times; they are stored as tuples
    of floats.
    """

    kind: str
    params: dict[str, Any]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown rate kind {self.kind!r}, expected one of {KINDS}")
        if not isinstance(self.params, dict):
            raise ValueError(f"rate 'params' must be an object, not {self.params!r}")
        expected = _PARAM_KEYS[self.kind]
        missing = [k for k in expected if k not in self.params]
        if missing:
            raise ValueError(f"rate kind {self.kind!r} missing params {missing}")
        unknown = sorted(set(self.params) - set(expected))
        if unknown:
            raise ValueError(f"rate kind {self.kind!r} has unknown params {unknown}; expected {list(expected)}")
        if self.kind != "tabulated":
            params = {k: _finite_number(self.params[k], f"param {k!r} of {self.kind!r}") for k in expected}
            object.__setattr__(self, "params", params)
            return
        knots = {}
        for key in expected:
            seq = self.params[key]
            if not isinstance(seq, (list, tuple, np.ndarray)):
                raise ValueError(f"param {key!r} of 'tabulated' must be a list of numbers, not {seq!r}")
            knots[key] = tuple(_finite_number(v, f"param {key!r} of 'tabulated'") for v in seq)
        if len(knots["times"]) < 2 or len(knots["values"]) != len(knots["times"]):
            raise ValueError("tabulated rate needs matching times/values with >= 2 knots")
        if any(b <= a for a, b in zip(knots["times"], knots["times"][1:])):
            raise ValueError("tabulated knot times must be strictly increasing")
        object.__setattr__(self, "params", knots)

    @cached_property
    def _spline(self) -> NaturalSpline:
        # natural boundary: second derivative zero at both end knots
        return NaturalSpline(self.params["times"], self.params["values"])

    @cached_property
    def _spline_integral(self) -> NaturalSpline:
        # zero at the first knot; exact on every cubic piece
        return self._spline.antiderivative()

    @property
    def window(self) -> tuple[float, float] | None:
        """Knot span for tabulated kinds, None for analytic kinds."""
        if self.kind != "tabulated":
            return None
        knots = self.params["times"]
        return float(knots[0]), float(knots[-1])

    def __call__(self, t):
        return evaluate(self, t)


def _as_float(value) -> float:
    # JSON true/false are ints to Python and a string is not a number here;
    # float() overflows on an int beyond the float range, which JSON allows
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            number = float(value)
    return number


def _finite_number(value, what: str) -> float:
    number = _as_float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, not {value!r}")
    return number


def _positive_number(value, what: str) -> float:
    """value as a float; refused unless it is a positive, finite number."""
    number = _as_float(value)
    if not (math.isfinite(number) and number > 0.0):
        raise ValueError(f"{what} must be positive and finite, got {value!r}")
    return number


def _whole_number(value, what: str, least: int = 0):
    """value, refused unless it is an int or numpy integer >= least.

    Bools are refused: JSON true/false are ints to Python, and int()
    would truncate 2.7.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{what} must be >= {least}")
    return value


def constant(value: float) -> RateFunction:
    """f(t) = value."""
    return RateFunction("constant", {"value": value})


def sinusoid(offset: float, amplitude: float, omega: float, phase: float = 0.0) -> RateFunction:
    """f(t) = offset + amplitude * sin(omega * t + phase)."""
    return RateFunction("sinusoid", {"offset": offset, "amplitude": amplitude, "omega": omega, "phase": phase})


def exp_saturating(offset: float, scale: float, rate: float) -> RateFunction:
    """f(t) = offset + scale * (1 - exp(-rate * t)) ** 2, saturating at offset + scale."""
    return RateFunction("exp_saturating", {"offset": offset, "scale": scale, "rate": rate})


def tabulated(times, values) -> RateFunction:
    """Natural cubic spline through the given knots.

    Evaluation outside the knot span is an error; we refuse to
    extrapolate rate curves silently.
    """
    return RateFunction("tabulated", {"times": times, "values": values})


def evaluate(f: RateFunction, t):
    """Rate value at time t.  Scalar in, float out; array in, array out."""
    t_arr = np.asarray(t, dtype=float)
    p = f.params
    if f.kind == "constant":
        out = np.full(t_arr.shape, p["value"])
    elif f.kind == "sinusoid":
        out = p["offset"] + p["amplitude"] * np.sin(p["omega"] * t_arr + p["phase"])
    elif f.kind == "exp_saturating":
        out = p["offset"] + p["scale"] * (1.0 - np.exp(-p["rate"] * t_arr)) ** 2
    else:
        out = f._spline(_inside_window(f, t_arr))
    if np.ndim(t) == 0:
        return float(out)
    return out


def _inside_window(f: RateFunction, t_arr: np.ndarray) -> np.ndarray:
    """Times of a tabulated rate, refused outside its knot span."""
    lo, hi = f.window
    # tiny slack for float round-off on grid endpoints
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    if np.any(t_arr < lo - tol) or np.any(t_arr > hi + tol):
        raise ValueError(f"time outside tabulated window [{lo}, {hi}]")
    return np.clip(t_arr, lo, hi)


def cumulative(f: RateFunction, times) -> np.ndarray:
    """Exact antiderivative of the rate at each of `times`.

    The constant of integration is fixed per rate (tabulated kinds are
    zero at their first knot), so only differences are meaningful: the
    integral over [a, b] is cumulative(f, [a, b]) differenced.  Tabulated
    kinds refuse times outside the knot span, as `evaluate` does.
    """
    t_arr = np.asarray(times, dtype=float)
    p = f.params
    if f.kind == "constant":
        return p["value"] * t_arr
    if f.kind == "sinusoid":
        a, b, w, phi = p["offset"], p["amplitude"], p["omega"], p["phase"]
        if w == 0.0:
            return (a + b * math.sin(phi)) * t_arr
        return a * t_arr - (b / w) * np.cos(w * t_arr + phi)
    if f.kind == "exp_saturating":
        a, b, c = p["offset"], p["scale"], p["rate"]
        if c == 0.0:
            # (1 - exp(0))**2 == 0, the curve is the constant a
            return a * t_arr
        return (a + b) * t_arr + (2.0 * b / c) * np.exp(-c * t_arr) - (b / (2.0 * c)) * np.exp(
            -2.0 * c * t_arr
        )
    return f._spline_integral(_inside_window(f, t_arr))


def integrate(f: RateFunction, t0: float, t: float) -> float:
    """Integral of the rate over [t0, t].  Requires t >= t0."""
    if t < t0:
        raise ValueError(f"integration endpoint t={t} precedes t0={t0}")
    if t == t0:
        return 0.0
    ends = cumulative(f, np.array([t0, t], dtype=float))
    return float(ends[1] - ends[0])


def increment_table(f: RateFunction, grid) -> np.ndarray:
    """Per-step integrals: entry j-1 is integrate(f, t_{j-1}, t_j).

    `grid` may be a TimeGrid or any 1-d array of increasing times.
    """
    times = np.asarray(getattr(grid, "times", grid), dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two grid times")
    if np.any(np.diff(times) <= 0):
        raise ValueError("grid times must be strictly increasing")
    return np.diff(cumulative(f, times))


def check_window(
    f: RateFunction,
    t0: float,
    t_end: float,
    n: int,
    *,
    positive: bool = False,
) -> None:
    """Dense-sample validation of a rate over [t0, t_end].

    Samples 10*n points.  Raises ValueError on non-finite values and on
    sign violations.
    """
    if t_end < t0:
        raise ValueError("t_end must be >= t0")
    sample = np.linspace(t0, t_end, max(2, 10 * int(n)))
    vals = np.asarray(evaluate(f, sample), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"rate kind {f.kind!r} is non-finite on [{t0}, {t_end}]")
    if positive and np.any(vals <= 0.0):
        raise ValueError(f"rate kind {f.kind!r} must be strictly positive on [{t0}, {t_end}]")


@dataclass(frozen=True, eq=False)
class RatePair:
    """Transmission intensity, noise intensity and the carrying capacity.

    The noise intensity is the one that must stay positive on the
    working window; the transmission intensity may dip negative
    (seasonal forcing) without breaking the model.
    """

    transmission: RateFunction
    noise: RateFunction
    capacity: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "capacity", _positive_number(self.capacity, "capacity"))

    def validate_window(self, t0: float, t_end: float, n: int) -> None:
        check_window(self.transmission, t0, t_end, n)
        check_window(self.noise, t0, t_end, n, positive=True)


def rate_to_dict(f: RateFunction) -> dict:
    """JSON-ready descriptor: {"kind": ..., "params": {...}}."""
    params = {}
    for k, v in f.params.items():
        params[k] = list(v) if isinstance(v, tuple) else v
    return {"kind": f.kind, "params": params}


def rate_from_dict(d: dict) -> RateFunction:
    """Inverse of rate_to_dict; a sinusoid's phase defaults to 0."""
    if not isinstance(d, dict) or set(d) != {"kind", "params"}:
        raise ValueError(f"rate descriptor must be exactly {{'kind': ..., 'params': {{...}}}}, not {d!r}")
    params = d["params"]
    if d["kind"] == "sinusoid" and isinstance(params, dict):
        params = {"phase": 0.0, **params}
    return RateFunction(d["kind"], params)


def pair_to_dict(pair: RatePair) -> dict:
    return {
        "transmission": rate_to_dict(pair.transmission),
        "noise": rate_to_dict(pair.noise),
        "capacity": pair.capacity,
    }


def pair_from_dict(d: dict) -> RatePair:
    for key in ("transmission", "noise", "capacity"):
        if key not in d:
            raise ValueError(f"rate pair descriptor missing {key!r}")
    return RatePair(
        transmission=rate_from_dict(d["transmission"]),
        noise=rate_from_dict(d["noise"]),
        capacity=d["capacity"],
    )
