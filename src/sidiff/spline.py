"""Natural cubic splines as piecewise polynomials.

`NaturalSpline(x, y)` is the C2 cubic through the knots (x, y) with
zero second derivative at both ends.  It keeps the knots `x` and the
coefficients `c` of each piece, highest power first: on
[x[i], x[i+1]] the value is sum_j c[j, i] (t - x[i])^(k-1-j), with c of
shape (k, n-1), k = 4 for the spline itself.  `derivative()` and
`antiderivative()` return the same type with k = 3 and k = 5.

The arithmetic is that of scipy's `CubicSpline(x, y, bc_type="natural")`
and `PPoly`, operation for operation, so every result is identical to
theirs bit for bit:

- the knot slopes solve the tridiagonal system by a replay of
  reference LAPACK `dgtsv` (row interchanges included, no fused
  multiply-add, the fill-in term kept in the back substitution);
- the slopes become coefficients by the cubic Hermite map;
- a piece is evaluated as the sum c[k-1] + c[k-2] z1 + c[k-3] z2 + ...
  over the powers z1 = s, z2 = s s, z3 = (s s) s of s = t - x[i],
  which is not Horner's rule and rounds differently from it;
- an antiderivative divides row j by k - j, then sets each piece's
  constant to the previous piece's value at their common knot.

The solve runs in the C kernel `sidiff_spline_solve` (see
sidiff._kernels), which does dgtsv whole on each fit.  Where the kernel
cannot be built, `_solve` replays it in Python, with the same bytes,
and one cache keeps that fit fast.  The row interchanges and
elimination factors of the solve depend only on the knot spacing, so
they are worked out once per knot layout, as the Python floats the
solve reads, and the _LAYOUTS_KEPT most recently used layouts are kept
(about 112 bytes per knot each, up to about 140 where rows are
interchanged); a fit then runs the elimination on its right-hand side
alone.  An entry is a function of its key alone, so no result depends
on what is cached.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _kernels

__all__ = ["NaturalSpline"]

_LAYOUTS_KEPT = 8


class NaturalSpline:
    """Natural cubic spline through (x, y), as a piecewise polynomial.

    x must be strictly increasing, with at least two knots; x and y
    must be finite and of one length.  Calling the spline evaluates it
    at a scalar or an array of times; times outside [x[0], x[-1]] use
    the end pieces' polynomials.  The knots are read-only.
    """

    __slots__ = ("x", "c")

    def __init__(self, x, y):
        x = np.array(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or y.shape != x.shape or x.size < 2:
            raise ValueError("spline knots and values must be 1-d arrays of one length >= 2")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("spline knots and values must be finite")
        dx = np.diff(x)
        if np.any(dx <= 0.0):
            raise ValueError("spline knots must be strictly increasing")
        x.flags.writeable = False
        slope = np.diff(y) / dx
        # inner rows dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1};
        # the natural end rows 2 dx_0 s_0 + dx_0 s_1 = 3 (y_1 - y_0) and
        # its mirror image, with CubicSpline's zero second-derivative
        # terms added, as they can change the sign of a zero
        rhs = np.empty(x.size)
        rhs[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0])
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        rhs[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])
        lib = _kernels.library()
        if lib is None:
            s = np.array(_solve(_layout(x.tobytes()), rhs.tolist()), dtype=float)
        elif lib.sidiff_spline_solve(x.size, dx, rhs, np.empty(3 * x.size)):
            raise ValueError("singular spline system")
        else:
            s = rhs
        # cubic Hermite map from the knot slopes to the coefficients
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def _with(self, c: np.ndarray) -> NaturalSpline:
        """The piecewise polynomial with coefficients c on these knots."""
        other = object.__new__(type(self))
        other.x, other.c = self.x, c
        return other

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        idx, s = _locate(self.x, t_arr.ravel())
        # 0.0 + c[k-1], then c[k-1-j] z_j added in turn for the powers
        # z_1 = s, z_2 = s s, z_3 = (s s) s, ..., as PPoly sums them
        c = self.c
        out = c[-1].take(idx)
        out += 0.0
        z = s
        for j, row in enumerate(c[-2::-1]):
            if j:
                z = z * s
            term = row.take(idx)
            term *= z
            out += term
        return out.reshape(t_arr.shape)

    def derivative(self) -> NaturalSpline:
        """First derivative, one degree lower."""
        k = len(self.c)
        return self._with(self.c[:-1] * np.arange(k - 1, 0, -1.0)[:, None])

    def antiderivative(self) -> NaturalSpline:
        """Antiderivative, one degree higher, zero at the first knot."""
        k = len(self.c)
        c = np.zeros((k + 1, self.c.shape[1]))
        c[:-1] = self.c / np.arange(k, 0, -1.0)[:, None]
        # each piece starts where the previous one ends: its constant is
        # the previous piece summed over the powers of that piece's width
        const = [0.0]
        for width, piece in zip(np.diff(self.x)[:-1].tolist(), c[-2::-1].T.tolist()):
            value, z = 0.0 + const[-1], 1.0
            for coef in piece:
                z *= width
                value = value + coef * z
            const.append(value)
        c[-1] = const
        return self._with(c)


@functools.lru_cache(maxsize=_LAYOUTS_KEPT)
def _layout(knot_bytes: bytes) -> tuple:
    """Row interchanges and factors of reference `dgtsv` on the spline
    system of the knots whose float64 bytes are knot_bytes, as the
    tuples of Python bools and floats that `_solve` zips over: the
    interchange flags and the factors, first row first, then the
    eliminated diagonal, superdiagonal and fill-in second
    superdiagonal, last row first.  The fill-in is zero where no row
    was interchanged.
    """
    dx = np.diff(np.frombuffer(knot_bytes))
    d = np.concatenate(([2 * dx[0]], 2 * (dx[:-1] + dx[1:]), [2 * dx[-1]])).tolist()
    du = np.concatenate((dx[:1], dx[:-1])).tolist()
    dl = np.concatenate((dx[1:], dx[-1:])).tolist()
    n = len(d)
    swaps, factors = [], []
    du2 = [0.0] * (n - 2)
    for i in range(n - 1):
        swap = abs(d[i]) < abs(dl[i])
        if not swap:
            if d[i] == 0.0:
                raise ValueError("singular spline system")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du2[i]
            du[i] = temp
        swaps.append(swap)
        factors.append(fact)
    if d[-1] == 0.0:
        raise ValueError("singular spline system")
    # the back substitution starts from two zero unknowns past the last
    # row, with zero coefficients: v - 0.0 * 0.0 is v, so the last two
    # rows come out as dgtsv's shorter formulas give them
    return tuple(swaps), tuple(factors), tuple(d[::-1]), (0.0, *du[::-1]), (0.0, 0.0, *du2[::-1])


def _solve(layout: tuple, b: list) -> list:
    """The elimination and back substitution of `dgtsv` on one right-hand side."""
    swaps, factors, d, du, du2 = layout
    # `row` is row i as eliminated so far; row i + 1 loses its factor
    # times row i, or the two are interchanged first
    row = b[0]
    eliminated = []
    for value, swap, fact in zip(b[1:], swaps, factors):
        if swap:
            eliminated.append(value)
            row = row - fact * value
        else:
            eliminated.append(row)
            row = value - fact * row
    eliminated.append(row)
    x1 = x2 = 0.0
    out = []
    for value, diag, upper, upper2 in zip(reversed(eliminated), d, du, du2):
        x2, x1 = x1, (value - upper * x1 - upper2 * x2) / diag
        out.append(x1)
    out.reverse()
    return out


def _locate(x: np.ndarray, t: np.ndarray) -> tuple:
    """Piece index of each time, and its offset t - x[index]."""
    idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    return idx, t - x[idx]
