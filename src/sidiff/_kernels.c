/* The two loops of sidiff that step one element at a time, in plain C.

   Each function does its Python twin's floating-point operations in the
   same order, one rounding per operation, so its results are the same
   bytes: sidiff._kernels builds this file with -ffp-contract=off (no
   fused multiply-add) and -fno-fast-math, and the twins stay as the
   fallback and the reference.  Nothing here allocates. */

#include <float.h>
#include <math.h>

/* x87 arithmetic rounds to a wider type first; such a build fails, and the
   Python loops run instead */
#if FLT_EVAL_METHOD != 0
#error "double arithmetic must round to double"
#endif

/* The Euler-Maruyama steps of one noise block of simulate._em_batch.

   block holds `steps` rows of `n` standard normal draws, one row per
   internal step; each row is overwritten by that step's iterates before
   the clamp, and x, the n current states, ends clamped into [lo, hi].
   lam, s2 and sd are the block's per-step transmission, noise and noise
   root.  A NaN iterate passes the clamp, as numpy's clip lets it. */
void sidiff_em_steps(long steps, long n, const double *lam, const double *s2, const double *sd, double k,
                     double two_k, double h, double sqrt_h, double lo, double hi, int state_drift, double *x,
                     double *block)
{
    for (long j = 0; j < steps; j++) {
        double *row = block + j * n;
        for (long i = 0; i < n; i++) {
            double xi = x[i];
            double logistic = (k - xi) * xi / k;
            double drift = state_drift ? ((k - xi * 2.0) * s2[j] / two_k + lam[j]) * logistic : logistic * lam[j];
            double y = (xi + drift * h) + logistic * sd[j] * sqrt_h * row[i];
            row[i] = y;
            x[i] = y < lo ? lo : (y > hi ? hi : y);
        }
    }
}

/* Reference LAPACK dgtsv on the natural spline system of spline.NaturalSpline.

   dx holds the n - 1 knot gaps and b the n right-hand sides, which are
   overwritten by the knot slopes; work holds 3 n doubles.  The system
   is the one spline._layout builds, and the elimination and back
   substitution are those of spline._solve, row interchanges and the
   fill-in term included.  Returns 0, or 1 when a pivot is zero. */
int sidiff_spline_solve(long n, const double *dx, double *b, double *work)
{
    double *d = work, *du = work + n, *dl = work + 2 * n;
    d[0] = 2 * dx[0];
    for (long i = 1; i < n - 1; i++)
        d[i] = 2 * (dx[i - 1] + dx[i]);
    d[n - 1] = 2 * dx[n - 2];
    du[0] = dx[0];
    for (long i = 1; i < n - 1; i++)
        du[i] = dx[i - 1];
    for (long i = 0; i < n - 2; i++)
        dl[i] = dx[i + 1];
    dl[n - 2] = dx[n - 2];
    /* dl[i] becomes the fill-in of row i: du2 in dgtsv, zero where no
       rows were interchanged */
    for (long i = 0; i < n - 1; i++) {
        if (!(fabs(d[i]) < fabs(dl[i]))) {
            if (d[i] == 0.0)
                return 1;
            double fact = dl[i] / d[i];
            d[i + 1] = d[i + 1] - fact * du[i];
            b[i + 1] = b[i + 1] - fact * b[i];
            dl[i] = 0.0;
        } else {
            double fact = d[i] / dl[i];
            d[i] = dl[i];
            double temp = d[i + 1];
            d[i + 1] = du[i] - fact * temp;
            if (i < n - 2) {
                dl[i] = du[i + 1];
                du[i + 1] = -fact * dl[i];
            } else {
                dl[i] = 0.0;
            }
            du[i] = temp;
            temp = b[i];
            b[i] = b[i + 1];
            b[i + 1] = temp - fact * b[i + 1];
        }
    }
    if (d[n - 1] == 0.0)
        return 1;
    /* the last two rows subtract zero terms too, as the Python replay does */
    double x1 = 0.0, x2 = 0.0;
    for (long i = n - 1; i >= 0; i--) {
        double upper = i < n - 1 ? du[i] : 0.0, upper2 = i < n - 2 ? dl[i] : 0.0;
        double xi = (b[i] - upper * x1 - upper2 * x2) / d[i];
        x2 = x1;
        x1 = xi;
        b[i] = xi;
    }
    return 0;
}
