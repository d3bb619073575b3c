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
sidiff._kernels).  `_solve` is that kernel line for line in Python, the
reference it is tested against and the fallback where it cannot be
built, with the same bytes.
"""

from __future__ import annotations

import numpy as np

from . import _kernels

__all__ = ["NaturalSpline"]


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
            s = np.array(_solve(dx.tolist(), rhs.tolist()))
        else:
            work = np.empty(3 * x.size)
            _kernels.check_arrays(dx, rhs, work)
            if lib.sidiff_spline_solve(x.size, dx.ctypes.data, rhs.ctypes.data, work.ctypes.data):
                raise ValueError("singular spline system")
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


def _solve(dx: list, b: list) -> list:
    """Reference LAPACK `dgtsv` on the natural spline system of the knot
    gaps dx: the knot slopes for the right-hand sides b, which are
    overwritten.  `sidiff_spline_solve` line for line, with d, du and dl
    the diagonal, superdiagonal and subdiagonal.
    """
    n = len(b)
    d = [2 * dx[0], *(2 * (left + right) for left, right in zip(dx, dx[1:])), 2 * dx[-1]]
    du = [dx[0], *dx[:-1]]
    dl = [*dx[1:], dx[-1]]
    # dl[i] becomes the fill-in of row i: du2 in dgtsv, zero where no
    # rows were interchanged
    for i in range(n - 1):
        if not abs(d[i]) < abs(dl[i]):
            if d[i] == 0.0:
                raise ValueError("singular spline system")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            else:
                dl[i] = 0.0
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise ValueError("singular spline system")
    # the last two rows subtract zero terms too: v - 0.0 * 0.0 is v, so
    # they come out as dgtsv's shorter formulas give them
    x1 = x2 = 0.0
    for i in range(n - 1, -1, -1):
        upper = du[i] if i < n - 1 else 0.0
        upper2 = dl[i] if i < n - 2 else 0.0
        x2, x1 = x1, (b[i] - upper * x1 - upper2 * x2) / d[i]
        b[i] = x1
    return b


def _locate(x: np.ndarray, t: np.ndarray) -> tuple:
    """Piece index of each time, and its offset t - x[index]."""
    idx = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    return idx, t - x[idx]
