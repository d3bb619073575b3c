/* The loops of sidiff that step one element at a time, in plain C.

   The Euler-Maruyama steps, the exact pass (scale, shift and running
   sum of the exact sampler's draws), the lag-one covariance and the
   spline solve do their Python twins' floating-point operations in the
   same order, one rounding per operation, so their results are the
   same bytes: sidiff._kernels builds this file with -ffp-contract=off
   (no fused multiply-add) and -fno-fast-math, and the twins stay as
   the fallback and the reference.  The CSV float formatter writes the
   bytes of Python's repr, through Schubfach's shortest digits.  The CSV
   reader parses a block of rows, counted first by sidiff_count_lines,
   in the grammar the formatter writes, each cell to the double float()
   gives, by Eisel-Lemire; any block it does not take whole goes back to
   sidiff.dataio's own reader.  No kernel calls anything of CPython, so
   sidiff._kernels calls them all through a ctypes.CDLL handle, which
   releases the GIL.  Both CSV kernels take their powers of ten from one
   table, the 128-bit significands of 5^q, since 10^q = 5^q * 2^q. */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* x87 arithmetic rounds to a wider type first; such a build fails, and the
   Python loops run instead */
#if FLT_EVAL_METHOD != 0
#error "double arithmetic must round to double"
#endif
/* normalize counts leading zeros with a GCC builtin, which clang has too;
   another compiler fails the build, and the Python twins run instead */
#ifndef __GNUC__
#error "need __builtin_clzll"
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
   overwritten by the knot slopes; work holds 3 n doubles.  The row
   interchanges and the fill-in term are dgtsv's, and spline._solve is
   this function line for line in Python.  Returns 0, or 1 when a pivot
   is zero. */
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
    /* the last two rows subtract zero terms too: v - 0.0 * 0.0 is v, so
       they come out as dgtsv's shorter formulas give them */
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

/* The exact pass of simulate._exact_replicates, in place.

   values holds `rows` paths of n grid values, with the standard normal
   draws of each path from column 1 on.  Column 0 becomes 0.0, and along
   each row draw j becomes its increment draw * sd_inc[j - 1] +
   mean_inc[j - 1], then the running sum of the increments so far: the
   twin's z *= sd_inc, z += mean_inc and np.cumsum in their order.  The
   sum starts from the first increment itself, not from 0.0 plus it, so
   a -0.0 stays, as it does in numpy's accumulate.  One row's sum is a
   chain of dependent additions, so ROW_BLOCK rows go side by side. */
#define ROW_BLOCK 4

static inline void exact_rows(int count, long n, const double *mean_inc, const double *sd_inc, double *values)
{
    double sum[ROW_BLOCK];
    for (int r = 0; r < count; r++) {
        double *row = values + r * n;
        row[0] = 0.0;
        sum[r] = row[1] * sd_inc[0] + mean_inc[0];
        row[1] = sum[r];
    }
    for (long j = 2; j < n; j++) {
        double sd = sd_inc[j - 1], mean = mean_inc[j - 1];
        for (int r = 0; r < count; r++) {
            double *cell = values + r * n + j;
            sum[r] = sum[r] + (*cell * sd + mean);
            *cell = sum[r];
        }
    }
}

void sidiff_exact_paths(long rows, long n, const double *mean_inc, const double *sd_inc, double *values)
{
    long i = 0;
    for (; i + ROW_BLOCK <= rows; i += ROW_BLOCK)
        exact_rows(ROW_BLOCK, n, mean_inc, sd_inc, values + i * n);
    for (; i < rows; i++)
        exact_rows(1, n, mean_inc, sd_inc, values + i * n);
}

/* The lag-one covariance of estimate.sample_lag_cov, into out.

   values holds `rows` paths of n grid values and mean their n column
   means.  out[0] is 0.0, and out[j] is the sum over the paths of
   (y[j] - mean[j]) * (y[j - 1] - mean[j - 1]), added path by path
   into +0.0, then divided by rows - 1: the twin's operations in its
   order.  ROW_BLOCK paths go through the columns together, each centred
   value kept for the next column's product, and their products are
   added into out[j] one after another, path by path as the twin adds
   them. */
static inline void lag_rows(int count, long n, const double *values, const double *mean, double *out)
{
    double previous[ROW_BLOCK];
    for (int r = 0; r < count; r++)
        previous[r] = values[r * n] - mean[0];
    for (long j = 1; j < n; j++) {
        double sum = out[j], m = mean[j];
        for (int r = 0; r < count; r++) {
            double centred = values[r * n + j] - m;
            sum = sum + centred * previous[r];
            previous[r] = centred;
        }
        out[j] = sum;
    }
}

void sidiff_lag_cov(long rows, long n, const double *values, const double *mean, double *out)
{
    for (long j = 0; j < n; j++)
        out[j] = 0.0;
    long i = 0;
    for (; i + ROW_BLOCK <= rows; i += ROW_BLOCK)
        lag_rows(ROW_BLOCK, n, values + i * n, mean, out);
    for (; i < rows; i++)
        lag_rows(1, n, values + i * n, mean, out);
    for (long j = 1; j < n; j++)
        out[j] = out[j] / (double)(rows - 1);
}

/* Shortest round-trip formatting of doubles: Schubfach (Giulietti, "The
   Schubfach way to render doubles", 2020), as Bolz's C++ port of it
   does it, laid out by the rules of Python's repr.

   A double v = c * 2^q is what every decimal strictly inside its
   rounding interval reads back as, and, where c is even, those on its
   ends too; the ends lie halfway to the neighbouring doubles.  Schubfach
   scales v and both ends by 10^-k, with k = floor(log10 of the
   interval's width), so that at most one multiple of 10^(k+1) lies in
   the interval, and at least one of the two multiples of 10^k next to
   v.  It takes that multiple of 10^(k+1) where there is one, and else
   the one of the two inside, or, where both are, the nearer to v, a tie
   going to the even digit: the shortest digits and, among them, the
   closest, as David Gay's dtoa, which repr calls, picks them.  Each
   scaled value is one product with an upper bound of the 128-bit
   significand of 10^-k, rounded to odd, which Giulietti proves exact
   enough for these comparisons. */

#define MAX_DIGITS 17 /* the longest shortest round-trip digits of a double */

typedef struct {
    uint64_t f;
    int e;
} diyfp;

typedef struct {
    uint64_t high, low;
} u128;

/* The 128-bit product of x and y, from 32-bit halves where the compiler
   has no 128-bit integer */
static u128 full_multiply(uint64_t x, uint64_t y)
{
#ifdef __SIZEOF_INT128__
    unsigned __int128 p = (unsigned __int128)x * y;
    return (u128){(uint64_t)(p >> 64), (uint64_t)p};
#else
    const uint64_t m32 = 0xFFFFFFFFu;
    uint64_t a = x >> 32, b = x & m32, c = y >> 32, d = y & m32;
    uint64_t ac = a * c, bc = b * c, ad = a * d, bd = b * d;
    uint64_t mid = (bd >> 32) + (ad & m32) + (bc & m32);
    return (u128){ac + (ad >> 32) + (bc >> 32) + (mid >> 32), (mid << 32) | (bd & m32)};
#endif
}

/* x shifted until its top bit is set; x.f is not zero */
static diyfp normalize(diyfp x)
{
    int zeros = __builtin_clzll(x.f);
    x.f <<= zeros;
    x.e -= zeros;
    return x;
}

/* floor(q * log2(10)) for q from -342 to 324, the range of the table of
   powers of five, with fast_float's 217706 / 2^16 for log2(10) */
static int floor_log2_pow10(int q)
{
    int v = 217706 * q;
    return v >= 0 ? v >> 16 : -((-v + 65535) >> 16);
}

/* floor(log10(2^q)), or where three_quarters floor(log10(3/4 * 2^q)), for
   q from -1074 to 971, with Bolz's 1262611 / 2^22 for log10(2) and
   524031 / 2^22 for log10(4/3) */
static int floor_log10_pow2(int q, int three_quarters)
{
    int v = 1262611 * q - (three_quarters ? 524031 : 0);
    return v >= 0 ? v >> 22 : -((-v + (1 << 22) - 1) >> 22);
}

/* g * x / 2^128 rounded to odd: its floor, with the last bit set where
   the fraction is more than the error of g's upper bound can make */
static uint64_t round_to_odd(u128 g, uint64_t x)
{
    u128 low = full_multiply(g.low, x), high = full_multiply(g.high, x);
    uint64_t middle = high.low + low.high;
    return (high.high + (middle < low.high)) | (middle > 1);
}

/* The shortest decimal m * 10^*e that reads back as the finite, positive
   double of the given bits, the nearest to it among them; powers holds
   the high and the low word of the 128-bit significand of 5^q for q from
   first, which Schubfach looks up for q = -k from -292 to 324 */
static uint64_t shortest(uint64_t bits, const uint64_t *powers, int first, int *e)
{
    uint64_t fraction = bits & ((1ULL << 52) - 1);
    int biased = (int)(bits >> 52);
    uint64_t c = biased ? fraction | 1ULL << 52 : fraction;
    int q = biased ? biased - 1075 : -1074;
    *e = 0;
    if (q <= 0 && q > -53 && (c & ((1ULL << -q) - 1)) == 0) /* an integer below 2^53 */
        return c >> -q;
    int irregular = fraction == 0 && biased > 1; /* the lower end is nearer: a quarter step down */
    int k = floor_log10_pow2(q, irregular), h = q + floor_log2_pow10(-k) + 1;
    /* an upper bound of 10^-k: the table entry plus one, where fast_float
       has not already rounded it up */
    const uint64_t *power = powers + 2 * (-k - first);
    uint64_t up = -k < -27 || -k > -1;
    u128 g = {power[0] + (power[1] + up < up), power[1] + up};
    uint64_t odd = c & 1; /* the ends belong to the interval where c is even */
    uint64_t vb = round_to_odd(g, c << (h + 2));
    uint64_t lower = round_to_odd(g, (4 * c - 2 + irregular) << h) + odd;
    uint64_t upper = round_to_odd(g, (4 * c + 2) << h) - odd;
    uint64_t s = vb >> 2; /* floor(v * 10^-k) */
    if (s >= 10) {
        uint64_t sp = s / 10;
        int u_in = lower <= 40 * sp, w_in = 40 * sp + 40 <= upper;
        if (u_in != w_in) {
            *e = k + 1;
            return sp + w_in;
        }
    }
    *e = k;
    int u_in = lower <= 4 * s, w_in = 4 * s + 4 <= upper;
    if (u_in != w_in)
        return s + w_in;
    return s + (vb > 4 * s + 2 || (vb == 4 * s + 2 && (s & 1)));
}

/* v as repr writes it, into out; returns the number of bytes.  Not
   inlined: where GCC sees that length is at most 17, it copies the
   digits with rep movs, which takes longer for so few bytes than a call
   to memcpy (uniform doubles, 80 against 49 ns a cell). */
__attribute__((noinline)) static int repr_digits(double v, const char *digits, int length, int decpt, char *out)
{
    char *p = out;
    if (v < 0)
        *p++ = '-';
    if (decpt <= -4 || decpt > 16) {
        int exponent = decpt - 1;
        *p++ = digits[0];
        if (length > 1) {
            *p++ = '.';
            memcpy(p, digits + 1, length - 1);
            p += length - 1;
        }
        *p++ = 'e';
        *p++ = exponent < 0 ? '-' : '+';
        exponent = exponent < 0 ? -exponent : exponent;
        if (exponent >= 100)
            *p++ = (char)('0' + exponent / 100);
        *p++ = (char)('0' + exponent / 10 % 10);
        *p++ = (char)('0' + exponent % 10);
    } else if (decpt <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', -decpt);
        p += -decpt;
        memcpy(p, digits, length);
        p += length;
    } else if (decpt >= length) {
        memcpy(p, digits, length);
        p += length;
        memset(p, '0', decpt - length);
        p += decpt - length;
        *p++ = '.';
        *p++ = '0';
    } else {
        memcpy(p, digits, decpt);
        p += decpt;
        *p++ = '.';
        memcpy(p, digits + decpt, length - decpt);
        p += length - decpt;
    }
    return (int)(p - out);
}

/* v as repr writes it, into out: zeros, infinities and NaNs too, a NaN of
   either sign as nan; powers holds the high and the low word of the
   128-bit significand of 5^q for q from first on.  Returns the byte
   after the cell. */
static char *format_cell(double v, const uint64_t *powers, int first, char *out)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    if (v == 0 || !isfinite(v)) {
        const char *text = isnan(v) ? "nan" : isinf(v) ? (v < 0 ? "-inf" : "inf") : bits >> 63 ? "-0.0" : "0.0";
        size_t n = strlen(text);
        memcpy(out, text, n);
        return out + n;
    }
    int e;
    uint64_t m = shortest(bits & ~(1ULL << 63), powers, first, &e);
    /* the trailing zeros, at most 15, in steps of 8, 4, 2 and 1 */
    if (m % 100000000 == 0) {
        m /= 100000000;
        e += 8;
    }
    if (m % 10000 == 0) {
        m /= 10000;
        e += 4;
    }
    if (m % 100 == 0) {
        m /= 100;
        e += 2;
    }
    if (m % 10 == 0) {
        m /= 10;
        e += 1;
    }
    /* the digits from the last, eight at a time in 32 bits */
    char digits[MAX_DIGITS], *d = digits + MAX_DIGITS;
    if (m >= 100000000) {
        uint32_t low = (uint32_t)(m % 100000000);
        m /= 100000000;
        for (int j = 0; j < 8; j++) {
            *--d = (char)('0' + low % 10);
            low /= 10;
        }
    }
    uint32_t high = (uint32_t)m;
    do {
        *--d = (char)('0' + high % 10);
        high /= 10;
    } while (high);
    int length = (int)(digits + MAX_DIGITS - d);
    return out + repr_digits(v, d, length, length + e, out);
}

/* The rows x cols C-order block of values as CSV text: each cell as
   repr writes it, followed by ',' or, at the end of a row, '\n'.

   out holds at least 25 bytes per cell: the longest repr,
   -2.2250738585072014e-308, and a separator.  powers holds the high and
   the low word of the 128-bit significand of 5^q for q from first on.
   Returns the number of bytes written. */
long sidiff_format_block(long rows, long cols, const double *values, const uint64_t *powers, int first, char *out)
{
    char *p = out;
    for (long i = 0; i < rows; i++) {
        for (long j = 0; j < cols; j++) {
            p = format_cell(*values++, powers, first, p);
            *p++ = j < cols - 1 ? ',' : '\n';
        }
    }
    return (long)(p - out);
}

/* Decimal text to doubles: Eisel-Lemire (Lemire, "Number Parsing at a
   Gigabyte per Second", Software: Practice and Experience 2021), as
   fast_float's compute_float does it for binary64.  Mushtak and Lemire
   ("Fast Number Parsing Without Fallback", SPE 2023) prove that it
   gives the correctly rounded double of every decimal w * 10^q with
   0 < w < 2^64 and q from -342 to 308, with no fallback.

   w, shifted to set its top bit, is multiplied by the high 64 bits of
   the 128-bit significand of 5^q, and by the low 64 bits as well only
   where the low 9 bits of the product's high word, below the bits that
   rounding reads, are all ones, so that a carry from the second product
   could reach those bits.  The significands are fast_float's: 5^q
   truncated to 128 bits, except that where 5^-q fits in 64 bits (q from
   -27 to -1) it is rounded up.  The reader takes zeros and the cells of
   at least the smallest normal double whose double is finite, and
   hands the others back, so that it needs no subnormal path. */

#define MANTISSA_BITS 52

/* The bits of the positive double nearest w * 10^q, 0 < w < 2^64, into
   *bits; 0 where w * 10^q is below the smallest normal double or its
   double is infinite.  powers holds the high and the low word of the
   significand of 5^q for q from first to last. */
static int eisel_lemire(uint64_t w, long q, const uint64_t *powers, int first, int last, uint64_t *bits)
{
    if (q < first || q > last)
        return 0;
    diyfp n = normalize((diyfp){w, 0});
    const uint64_t *power = powers + 2 * (q - first);
    u128 product = full_multiply(n.f, power[0]);
    if ((product.high & 0x1FF) == 0x1FF) {
        u128 second = full_multiply(n.f, power[1]);
        product.low += second.high;
        product.high += product.low < second.high;
    }
    int upper = (int)(product.high >> 63), shift = upper + 64 - MANTISSA_BITS - 3;
    uint64_t mantissa = product.high >> shift; /* 54 bits: the double's 53 and one to round by */
    int power2 = floor_log2_pow10((int)q) + 63 + upper + n.e + 1023;
    if (power2 <= 0)
        return 0;
    /* an exact half between two doubles, possible only for q from -4
       to 23 and with nothing but zeros below the rounding bit, rounds to
       even, not up */
    if (product.low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1 && mantissa << shift == product.high)
        mantissa &= ~(uint64_t)1;
    mantissa = (mantissa + (mantissa & 1)) >> 1;
    if (mantissa >> (MANTISSA_BITS + 1)) { /* rounded up to the next power of two */
        mantissa = 1ULL << MANTISSA_BITS;
        power2++;
    }
    if (power2 >= 0x7FF)
        return 0;
    *bits = (uint64_t)power2 << MANTISSA_BITS | (mantissa & ((1ULL << MANTISSA_BITS) - 1));
    return 1;
}

/* The cell at p, in the grammar -?digits(.digits)?([eE][+-]?digits)?,
   as the double float() gives, into *value; returns the byte after the
   cell, or NULL where the cell is not in the grammar, has more than 19
   significant digits or is one eisel_lemire refuses.  A byte that is no
   digit, such as the block's final '\n', ends every scan. */
static const char *parse_cell(const char *p, const uint64_t *powers, int first, int last, double *value)
{
    int negative = *p == '-';
    p += negative;
    const char *digits = p;
    uint64_t w = 0;
    while ((unsigned char)(*p - '0') < 10)
        w = 10 * w + (uint64_t)(*p++ - '0');
    if (p == digits)
        return NULL;
    long fraction = 0;
    if (*p == '.') {
        const char *start = ++p;
        while ((unsigned char)(*p - '0') < 10)
            w = 10 * w + (uint64_t)(*p++ - '0');
        fraction = p - start;
        if (fraction == 0)
            return NULL;
    }
    /* the significant digits: all but the leading zeros */
    long count = p - digits - (fraction > 0);
    for (const char *s = digits; s < p && (*s == '0' || *s == '.'); s++)
        count -= *s == '0';
    if (count > 19)
        return NULL;
    long exponent = 0;
    if (*p == 'e' || *p == 'E') {
        int minus = *++p == '-';
        p += minus || *p == '+';
        const char *start = p;
        for (; (unsigned char)(*p - '0') < 10; p++)
            if (exponent < 100000) /* far beyond any double, and no overflow */
                exponent = 10 * exponent + (*p - '0');
        if (p == start)
            return NULL;
        exponent = minus ? -exponent : exponent;
    }
    uint64_t bits = 0; /* w == 0: a zero, whatever its exponent */
    if (w != 0 && !eisel_lemire(w, exponent - fraction, powers, first, last, &bits))
        return NULL;
    bits |= (uint64_t)negative << 63;
    memcpy(value, &bits, sizeof bits);
    return p;
}

/* The length bytes at text, rows lines of cols cells, each cell followed
   by ',' or, at the end of its line, '\n', as the values of a rows x
   cols C-order block.  powers holds the high and the low word of the
   128-bit significand of 5^q for q from first to last.  Returns 0, or 1
   where the text is anything else (another byte, an empty line, a line
   of another width, a missing final '\n') or a cell is one parse_cell
   refuses; values then holds nothing of use. */
int sidiff_parse_block(const char *text, long length, long rows, long cols, const uint64_t *powers, int first,
                       int last, double *values)
{
    const char *p = text, *end = text + length;
    if (length == 0 || end[-1] != '\n')
        return 1;
    for (long i = 0; i < rows; i++) {
        if (p == end)
            return 1;
        for (long j = 0; j < cols; j++) {
            p = parse_cell(p, powers, first, last, values++);
            if (p == NULL || *p++ != (j < cols - 1 ? ',' : '\n'))
                return 1;
        }
    }
    return p != end;
}

/* The number of '\n' bytes among the length bytes at text */
long sidiff_count_lines(const char *text, long length)
{
    long count = 0;
    const char *end = text + length;
    for (const char *p = text; p < end && (p = memchr(p, '\n', (size_t)(end - p))) != NULL; p++)
        count++;
    return count;
}
