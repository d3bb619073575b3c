/* The loops of sidiff that step one element at a time, in plain C.

   The Euler-Maruyama steps and the spline solve do their Python twins'
   floating-point operations in the same order, one rounding per
   operation, so their results are the same bytes: sidiff._kernels
   builds this file with -ffp-contract=off (no fused multiply-add) and
   -fno-fast-math, and the twins stay as the fallback and the reference.
   The CSV float formatter writes the bytes of Python's repr, through
   Grisu3 digits, and hands the doubles Grisu3 cannot decide to
   CPython's own formatter.  Only those hand-offs allocate, and they
   need the GIL: sidiff._kernels calls the formatter through a
   ctypes.PyDLL handle, which keeps it.  The CSV reader parses a block
   of rows in the grammar the formatter writes, each cell to the double
   float() gives, by Eisel-Lemire; it calls nothing of CPython, and any
   block it does not take whole goes back to sidiff.dataio's own
   reader.  Both take their powers of ten from one table, the 128-bit
   significands of 5^q, since 10^q = 5^q * 2^q. */

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

/* Shortest round-trip formatting of doubles: Grisu3 (Loitsch, "Printing
   floating-point numbers quickly and accurately with integers", PLDI
   2010), as in the double-conversion library, laid out by the rules of
   Python's repr.

   A DiyFp f * 2^e holds a 64-bit significand.  Grisu3 scales the double
   and its two rounding boundaries by a cached power of ten into the
   exponent window [ALPHA, -32], generates the digits of the upper
   boundary until they fall inside the interval, and weeds the last
   digit towards the double.  Where the error of the 64-bit arithmetic
   leaves the shortest or the closest digits undecided, it says so, and
   the double goes to PyOS_double_to_string, which float.__repr__
   calls. */

/* CPython's formatter and allocator, resolved in the interpreter's process */
char *PyOS_double_to_string(double val, char format_code, int precision, int flags, int *type);
void PyMem_Free(void *ptr);
#define Py_DTSF_ADD_DOT_0 0x02

#define ALPHA (-60) /* the scaled exponent window is [ALPHA, -32] */
#define LOG10_2 0.30102999566398114 /* as double-conversion rounds 1 / log2(10) */
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

/* x * y rounded at bit 64 */
static diyfp multiply(diyfp x, diyfp y)
{
    u128 p = full_multiply(x.f, y.f);
    diyfp r = {p.high + (p.low >> 63), x.e + y.e + 64};
    return r;
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

/* The decimal exponent k of the cached power 10^k that scales a
   normalized DiyFp of binary exponent e into [ALPHA, -32] */
static int power_for(int e)
{
    double x = (ALPHA - 1 - e) * LOG10_2;
    int k = (int)x; /* truncation, so a ceiling for x > 0 only */
    return k + (x > k);
}

/* Moves the last digit towards the scaled double w while it stays inside
   the interval; 1 when the digits are then known to be the closest and
   safely inside, 0 when the error of the scaled values leaves it open */
static int round_weed(char *digits, int length, uint64_t distance_too_high_w, uint64_t unsafe_interval,
                      uint64_t rest, uint64_t ten_kappa, uint64_t unit)
{
    uint64_t small_distance = distance_too_high_w - unit, big_distance = distance_too_high_w + unit;
    while (rest < small_distance && unsafe_interval - rest >= ten_kappa &&
           (rest + ten_kappa < small_distance || small_distance - rest >= rest + ten_kappa - small_distance)) {
        digits[length - 1]--;
        rest += ten_kappa;
    }
    if (rest < big_distance && unsafe_interval - rest >= ten_kappa &&
        (rest + ten_kappa < big_distance || big_distance - rest > rest + ten_kappa - big_distance))
        return 0;
    return 2 * unit <= rest && rest <= unsafe_interval - 4 * unit;
}

/* The shortest digits of the scaled upper boundary that land strictly
   inside (low, high), weeded towards w; *kappa is the power of ten of
   the last digit.  Returns round_weed's verdict. */
static int digit_gen(diyfp low, diyfp w, diyfp high, char *digits, int *length, int *kappa)
{
    uint64_t unit = 1;
    uint64_t too_low = low.f - unit, too_high = high.f + unit;
    uint64_t unsafe_interval = too_high - too_low;
    int shift = -w.e;
    uint64_t one = 1ULL << shift, fractionals = too_high & (one - 1);
    /* at least 4 (high.f >= 2^62, shift <= 60), so the first digit is not 0 */
    uint32_t integrals = (uint32_t)(too_high >> shift), divisor = 1;
    *kappa = 1;
    while (integrals / 10 >= divisor) {
        divisor *= 10;
        (*kappa)++;
    }
    *length = 0;
    while (*kappa > 0) {
        digits[(*length)++] = (char)('0' + integrals / divisor);
        integrals %= divisor;
        (*kappa)--;
        uint64_t rest = ((uint64_t)integrals << shift) + fractionals;
        if (rest < unsafe_interval)
            return round_weed(digits, *length, too_high - w.f, unsafe_interval, rest, (uint64_t)divisor << shift,
                              unit);
        divisor /= 10;
    }
    while (*length < MAX_DIGITS) {
        fractionals *= 10;
        unit *= 10;
        unsafe_interval *= 10;
        digits[(*length)++] = (char)('0' + (fractionals >> shift));
        fractionals &= one - 1;
        (*kappa)--;
        if (fractionals < unsafe_interval)
            return round_weed(digits, *length, (too_high - w.f) * unit, unsafe_interval, fractionals, one, unit);
    }
    return 0;
}

/* The shortest digits of a finite, nonzero, positive v, the closest to v
   among them, with v = 0.digits * 10^decpt; 0 where Grisu3 cannot decide */
static int grisu3(double v, const uint64_t *powers, int first, int last, char *digits, int *length, int *decpt)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t fraction = bits & ((1ULL << 52) - 1);
    int biased = (int)(bits >> 52 & 0x7FF);
    diyfp w = biased ? (diyfp){fraction | (1ULL << 52), biased - 1075} : (diyfp){fraction, -1074};
    /* the boundaries halfway to the neighbouring doubles; the lower one is
       closer at an exact power of two above the smallest normal */
    diyfp plus = normalize((diyfp){(w.f << 1) + 1, w.e - 1});
    diyfp minus = fraction == 0 && biased > 1 ? (diyfp){(w.f << 2) - 1, w.e - 2} : (diyfp){(w.f << 1) - 1, w.e - 1};
    minus.f <<= minus.e - plus.e;
    minus.e = plus.e;
    w = normalize(w);
    int k = power_for(w.e);
    if (k < first || k > last)
        return 0;
    /* 10^k to 64 bits: the high word of 5^k rounded by the low word's top
       bit, which never carries it to 2^64, and 2^k in the exponent */
    const uint64_t *power = powers + 2 * (k - first);
    diyfp c = {power[0] + (power[1] >> 63), floor_log2_pow10(k) - 63};
    int kappa;
    int ok = digit_gen(multiply(minus, c), multiply(w, c), multiply(plus, c), digits, length, &kappa);
    *decpt = *length + kappa - k;
    return ok;
}

/* v as repr writes it, into out; returns the number of bytes */
static int repr_digits(double v, const char *digits, int length, int decpt, char *out)
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

/* The rows x cols C-order block of values as CSV text: each cell as
   repr writes it, followed by ',' or, at the end of a row, '\n'.

   out holds at least 25 bytes per cell: the longest repr,
   -2.2250738585072014e-308, and a separator.  powers holds the high and
   the low word of the 128-bit significand of 5^k for k from first to
   last; Grisu3 looks up k from -307, for DBL_MAX, to 324, for 5e-324,
   and a double whose k lies outside the table goes to CPython.
   *fallbacks is increased by the number of cells handed to
   PyOS_double_to_string: zeros, infinities, NaNs and the doubles Grisu3
   leaves undecided.  Returns the number of bytes written, or -1 when
   CPython's formatter fails, with its Python exception set. */
long sidiff_format_block(long rows, long cols, const double *values, const uint64_t *powers, int first, int last,
                         char *out, long *fallbacks)
{
    char *p = out, digits[MAX_DIGITS];
    for (long i = 0; i < rows * cols; i++) {
        double v = values[i];
        int length, decpt;
        if (v != 0 && isfinite(v) && grisu3(fabs(v), powers, first, last, digits, &length, &decpt)) {
            p += repr_digits(v, digits, length, decpt, p);
        } else {
            char *text = PyOS_double_to_string(v, 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
            if (text == NULL)
                return -1;
            size_t n = strlen(text);
            memcpy(p, text, n);
            p += n;
            PyMem_Free(text);
            ++*fallbacks;
        }
        *p++ = (i + 1) % cols ? ',' : '\n';
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
