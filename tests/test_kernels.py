"""Building and loading the C kernels, the CSV float formatter and
reader, and the fallback when the build fails."""

import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sidiff import (
    NaturalSpline,
    RatePair,
    TimeGrid,
    _kernels,
    constant,
    load_csv,
    load_paths,
    sample_lag_cov,
    sample_mean,
    save_paths,
    simulate_em,
)
from sidiff.dataio import _write_csv, save_raw_series
from sidiff.experiments import case_rates
from sidiff.simulate import _exact_replicates
from sidiff.synthetic import measles_like_table


@pytest.fixture
def fresh_install(monkeypatch, tmp_path):
    """The kernels' source alone in an empty directory, with the loader's
    cached result cleared now and again at the end of the test."""
    copy = tmp_path / _kernels.SOURCE.name
    shutil.copyfile(_kernels.SOURCE, copy)
    monkeypatch.setattr(_kernels, "SOURCE", copy)
    _kernels.library.cache_clear()
    yield tmp_path
    _kernels.library.cache_clear()


def _outputs(directory):
    """Euler-Maruyama paths with clamp hits, an exact replicate's Y paths
    and their lag-one covariance, a 501-knot spline fit, an all-float and
    a mixed CSV of both, as bytes, and the arrays of a path bundle and a
    count table read back."""
    ps = simulate_em(RatePair(constant(1.2), constant(0.1), 200.0), 20.0, TimeGrid(0.0, 0.05, 1001), 6, 3)
    exact = next(_exact_replicates(case_rates("b"), 20.0, TimeGrid(0.0, 0.05, 1001), 7, 3, [1]))
    lag_cov = sample_lag_cov(exact, sample_mean(exact))
    x = np.linspace(0.0, 50.0, 501)
    c = NaturalSpline(x, np.cos(x)).c
    _write_csv(str(directory / "paths.csv"), ["t", "a", "b"], [ps.grid.times, *ps.values[:2]], meta=({}, 3))
    _write_csv(str(directory / "spline.csv"), ["knot", "c0", "c1"], [[f"k{i}" for i in range(500)], *c[:2]])
    csvs = [(directory / name).read_bytes() for name in ("paths.csv", "spline.csv")]
    bundle, counts, populations = (str(directory / name) for name in ("bundle.csv", "counts.csv", "pops.csv"))
    save_paths(ps, bundle)
    save_raw_series(measles_like_table(master_seed=3), counts, populations)
    back, table = load_paths(bundle), load_csv(counts, populations)
    read = [back.grid.times, back.values, table.times, table.counts, table.populations]
    computed = [ps.values, exact.values, lag_cov, c]
    return ps.meta["clamp_count"], *(array.tobytes() for array in computed), *csvs, *(array.tobytes() for array in read)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_the_library_is_built_once_per_source_into_pycache(fresh_install):
    assert _kernels.library() is not None
    cache = fresh_install / "__pycache__"
    built = {p.name for p in cache.iterdir()}
    assert len(built) == 1 and next(iter(built)).startswith("_kernels-")
    # a changed source builds anew and replaces the old library; no temporary file stays
    source = fresh_install / _kernels.SOURCE.name
    source.write_text(source.read_text() + "/* changed */\n")
    _kernels.library.cache_clear()
    assert _kernels.library() is not None
    rebuilt = {p.name for p in cache.iterdir()}
    assert len(rebuilt) == 1 and rebuilt != built and next(iter(rebuilt)).endswith(".so")
    # the name carries the interpreter's cache tag, and a build of another tag stays
    assert next(iter(rebuilt)).startswith(f"_kernels-{sys.implementation.cache_tag}-")
    other = cache / "_kernels-othertag-0123456789abcdef.so"
    other.write_bytes(b"")
    source.write_text(source.read_text() + "/* changed again */\n")
    _kernels.library.cache_clear()
    assert _kernels.library() is not None
    assert other.exists() and len(list(cache.iterdir())) == 2


def test_a_failed_build_falls_back_to_the_same_bytes(monkeypatch, tmp_path):
    (tmp_path / "built").mkdir()
    (tmp_path / "fallback").mkdir()
    expected = _outputs(tmp_path / "built")  # through the package's own kernels, where they can be built
    copy = tmp_path / _kernels.SOURCE.name
    shutil.copyfile(_kernels.SOURCE, copy)
    monkeypatch.setattr(_kernels, "SOURCE", copy)
    monkeypatch.setenv("PATH", str(tmp_path))  # no compiler to be found
    _kernels.library.cache_clear()
    try:
        assert _kernels.library() is None
        assert list((tmp_path / "__pycache__").iterdir()) == []
        assert _outputs(tmp_path / "fallback") == expected
    finally:
        _kernels.library.cache_clear()


def _formatted(values):
    """values as the C formatter writes them, one per line."""
    block = np.array(values, dtype=float).reshape(-1, 1)
    out = np.empty(_kernels.CELL_BYTES * block.size, dtype=np.uint8)
    return out[: _kernels.format_block(block, out)].tobytes()


def _reprs(values):
    return "".join(f"{v!r}\n" for v in np.array(values, dtype=float).tolist()).encode()


def test_the_formatter_writes_repr_of_random_doubles(built_kernels):
    bits = np.random.default_rng(27).integers(0, 2**64, size=1_200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:1_000_000]
    assert values.size == 1_000_000
    assert _formatted(values) == _reprs(values)


@pytest.mark.parametrize(
    "name",
    ["powers of two", "predecessors", "decimals", "edges"],
)
def test_the_formatter_writes_repr_at_the_hard_cases(built_kernels, name):
    powers = np.ldexp(1.0, np.arange(-1074, 1024))  # 5e-324 up to 2**1023
    values = {
        "powers of two": powers,
        "predecessors": np.nextafter(powers, 0.0),
        # m * 10**e parsed from its decimal: the doubles nearest short decimals
        "decimals": [float(f"{m}e{e}") for m in range(1, 200) for e in range(-330, 309)],
        "edges": [
            0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 9999999999999998.0, 1e-4, 1e-5,
            5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1.7976931348623157e308, -1.5, 123456.0,
        ],
    }[name]
    assert _formatted(values) == _reprs(values)


def test_the_formatter_writes_zeros_and_non_finite_cells(built_kernels):
    # a NaN with its sign bit set is nan too, as repr writes it; the two ends of the doubles' range
    # take the table's powers 10**324 and 10**-292
    cells = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0), 0.1, -2.5, 5e-324, -1.7976931348623157e308]
    assert _formatted(cells) == b"0.0\n-0.0\ninf\n-inf\nnan\nnan\n0.1\n-2.5\n5e-324\n-1.7976931348623157e+308\n"


def test_the_formatter_separates_cells_and_reports_their_ends(built_kernels):
    # each cell ends in ',' or, at the end of its row, '\n'
    block = np.array([[1.0, -0.5, 1e-5], [2.0, 1e16, 0.0]])
    out = np.empty(_kernels.CELL_BYTES * block.size, dtype=np.uint8)
    written = _kernels.format_block(block, out)
    assert out[:written].tobytes() == b"1.0,-0.5,1e-05\n2.0,1e+16,0.0\n"
    with pytest.raises(ValueError, match="bytes of out per cell"):
        _kernels.format_block(block, out[:-1])
    with pytest.raises(TypeError, match="C-contiguous"):
        _kernels.format_block(np.asfortranarray(block), out)


def _parsed(cells):
    """The cells, one per line, as the C reader parses them: a float64
    array, or None where it hands the block back."""
    text = "".join(f"{cell}\n" for cell in cells).encode()
    values = _kernels.parse_block(text, 0, len(cells), 1)
    return None if values is None else values.ravel()


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_parsed_as_float(cells):
    """The C reader takes every cell whose float() is zero or a normal
    double above the smallest, and gives float()'s bits; it hands back,
    one cell at a time, every cell whose float() is subnormal, a zero from
    nonzero digits or infinite.  The smallest normal double may go either
    way: a decimal just below it rounds up to it."""
    expected = np.array([float(cell) for cell in cells])
    magnitude = np.abs(expected)
    taken = (magnitude > np.finfo(float).tiny) & np.isfinite(expected)
    for i in np.flatnonzero(magnitude == 0).tolist():
        taken[i] = not cells[i].split("e")[0].strip("-0.")  # all its digits zero
    assert (_bits(_parsed([cells[i] for i in np.flatnonzero(taken)])) == _bits(expected[taken])).all()
    for i in np.flatnonzero(~taken).tolist():
        if magnitude[i] == np.finfo(float).tiny:
            got = _parsed([cells[i]])
            assert got is None or _bits(got) == _bits(expected[i]), cells[i]
        else:
            assert _parsed([cells[i]]) is None, cells[i]


def test_the_reader_parses_repr_of_random_doubles_as_float(built_kernels):
    bits = np.random.default_rng(28).integers(0, 2**64, size=1_010_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:1_000_000]
    assert values.size == 1_000_000
    _assert_parsed_as_float([repr(v) for v in values.tolist()])


def _random_decimals(rng, size, exponents):
    """Decimals of 1 to 19 significant digits, some with a sign, leading
    zeros or a point, with exponents drawn from exponents."""
    lengths = rng.integers(1, 20, size=size).astype(np.uint64)
    ten = np.uint64(10)
    digits = rng.integers(ten ** (lengths - np.uint64(1)), ten**lengths, dtype=np.uint64)
    columns = zip(
        digits.tolist(), rng.integers(0, lengths + np.uint64(1)).tolist(), rng.integers(0, 3, size=size).tolist(),
        rng.random(size).tolist(), rng.integers(*exponents, size=size).tolist(),
    )
    cells = []
    for digits, point, lead, sign, exponent in columns:
        text = "0" * lead + str(digits)
        point += lead
        mantissa = text if point == len(text) else f"{text[:point] or '0'}.{text[point:]}"
        cells.append(f"{'-' if sign < 0.3 else ''}{mantissa}e{exponent}")
    return cells


def test_the_reader_parses_short_decimals_of_every_exponent_as_float(built_kernels):
    _assert_parsed_as_float(_random_decimals(np.random.default_rng(29), 200_000, (-350, 321)))


def _halfway_cells():
    """Decimals of at most 19 digits exactly halfway between two adjacent
    doubles, with their neighbours one unit in the last digit away."""
    rng = np.random.default_rng(30)
    cells = []
    for m in rng.integers(2**52, 2**53, size=40).tolist() + [2**52, 2**53 - 1]:
        for j in range(-4, 11):  # the half unit is 2**(j - 1)
            odd = 2 * m + 1
            digits, exponent = (odd << (j - 1), 0) if j >= 1 else (odd * 5 ** (1 - j), j - 1)
            for w in (digits - 1, digits, digits + 1):
                if len(str(w)) <= 19:
                    cells.append(f"{w}e{exponent}")
    return cells


def test_the_reader_rounds_exact_halves_to_even(built_kernels):
    spellings = ["9007199254740993", "9007199254740993.0", "9007199254740993.00", "9007199254740993.000"]
    spellings += ["9.007199254740993e15", "90071992547409930e-1", "0.9007199254740993e16", "1e23", "9007199254740995"]
    cells = spellings + _halfway_cells()
    assert len(cells) > 500
    _assert_parsed_as_float(cells)
    assert _parsed(spellings[:4]).tolist() == [2.0**53] * 4  # ties to even, not up


def test_the_reader_takes_the_edge_values(built_kernels):
    cells = ["2.2250738585072014e-308", "1.7976931348623157e308", "-0.0", "0.0", "1e-05", "0e999999", "-0", "007.50"]
    got = _parsed(cells)
    assert got is not None and (_bits(got) == _bits([float(cell) for cell in cells])).all()


@pytest.mark.parametrize(
    "cell",
    ["5e-324", "1.7976931348623159e308", "12345678901234567890", "1.0000000000000000000", "1e-400", "1e400",
     "+1", ".5", "5.", "-", "1e", "1e+", "inf", "nan", "1_000", " 1", "1 ", "0x10", "1.5#", "١"],
)
def test_the_reader_hands_back_what_it_does_not_take(built_kernels, cell):
    assert _parsed(["1.0", cell, "2.0"]) is None


@pytest.mark.parametrize(
    "text",
    [b"1,2\n3,4", b"1,2\n\n3,4\n", b"1,2\n3,4\n\n", b"1,2\r\n3,4\r\n", b"1,2\n3\n", b"1,2\n3,4,5\n", b"1,2,\n3,4\n",
     b"1,2\n# c\n", b""],
)
def test_the_reader_takes_only_whole_rows_of_the_width(built_kernels, text):
    assert _kernels.parse_block(text, 0, text.count(b"\n"), 2) is None


def test_the_reader_reads_from_an_offset_in_place(built_kernels):
    text = b"t,x\n0.5,-1e-05\n1.0,2.5e+16\n"
    got = _kernels.parse_block(text, 4, 2, 2)
    assert got.shape == (2, 2) and got.tolist() == [[0.5, -1e-05], [1.0, 2.5e16]]


@pytest.mark.parametrize("body", [b"", b"\n", b"1,2\n3,4\n", b"1,2\n3,4", b"\n\n\nx", b"x" * 100, b"0.5\n" * 1000])
@pytest.mark.parametrize("start", [0, 3])
def test_the_line_counter_counts_as_bytes_count(built_kernels, body, start):
    text = b"t,a\n" + body
    assert _kernels.count_lines(text, start) == text.count(b"\n", start)
    assert _kernels.count_lines(text, len(text)) == 0


def test_the_powers_of_five_are_fast_float_s(built_kernels):
    first, last, words = _kernels.powers_of_five()
    assert (first, last) == (-342, 324) and words.shape == (last - first + 1, 2) and words.dtype == np.uint64
    significands = {q: int(hi) << 64 | int(lo) for q, (hi, lo) in zip(range(first, last + 1), words.tolist())}
    # fast_float's table generator: truncated, but rounded up where 5**-q < 2**64
    for q, significand in significands.items():
        power = 5**abs(q)
        if q >= 0:
            expected = power << max(128 - power.bit_length(), 0) >> max(power.bit_length() - 128, 0)
        else:
            z = power.bit_length()
            expected = (1 << (z + 127)) // power + 1 if q >= -27 else ((1 << (2 * z + 128)) // power + 1) >> (z + 1)
            expected >>= max(expected.bit_length() - 128, 0)
        assert significand == expected, q
    # 10**-342, 10**-1 and 10**0 as fast_float lists them
    assert significands[-342] == 0xEEF453D6923BD65A_113FAA2906A13B3F
    assert significands[-1] == 0xCCCCCCCCCCCCCCCC_CCCCCCCCCCCCCCCD
    assert significands[0] == 1 << 127


def test_the_powers_of_five_plus_one_bound_the_powers_of_ten(built_kernels):
    first, last, words = _kernels.powers_of_five()
    for q in range(first, last + 1):
        # the kernels' floor(q * log2(10)), fast_float's 217706 * q / 2**16 floored, is exact over the table
        floor_log2 = (10**q).bit_length() - 1 if q >= 0 else -(10**-q).bit_length()
        assert (217706 * q) >> 16 == floor_log2, q
        if q >= -292:  # the 10**-k the formatter looks up, from DBL_MAX's k = 292 to 5e-324's k = -324
            high, low = (int(word) for word in words[q - first])
            # floor + 1: the entry plus one, except where fast_float has rounded it up already
            g = (high << 64 | low) + (not -27 <= q <= -1)
            exact = Fraction(10) ** q * Fraction(2) ** (127 - floor_log2)
            assert exact < g <= exact + 1 and g < 1 << 128, q


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_both_csv_kernels_give_the_same_bytes_without_a_128_bit_integer(fresh_install, monkeypatch):
    monkeypatch.setattr(_kernels, "FLAGS", (*_kernels.FLAGS, "-U__SIZEOF_INT128__"))
    assert _kernels.library() is not None
    rng = np.random.default_rng(31)
    values = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    cells = [repr(v) for v in values[np.isfinite(values)].tolist()] + _random_decimals(rng, 50_000, (-350, 321))
    _assert_parsed_as_float(cells + _halfway_cells())
    # the formatter's products too, with its hard cases: powers of two, their predecessors and subnormals
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    subnormals = rng.integers(1, 2**52, size=10_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([values, powers, np.nextafter(powers, 0.0), subnormals])
    assert _formatted(values) == _reprs(values)


_SANITIZED_RUN = """
import sys
from pathlib import Path

import numpy as np

from sidiff import NaturalSpline, RatePair, TimeGrid, _kernels, constant, sample_lag_cov, sample_mean, simulate_em
from sidiff.simulate import _exact_replicates

_kernels.SOURCE = Path(sys.argv[1])
_kernels.FLAGS = (*_kernels.FLAGS, *sys.argv[2:])
assert _kernels.library() is not None, "the build failed"
values = np.random.default_rng(32).integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
out = np.empty(_kernels.CELL_BYTES * values.size, dtype=np.uint8)
text = out[: _kernels.format_block(values.reshape(-1, 1), out)].tobytes()
assert text == "".join(f"{v!r}\\n" for v in values.tolist()).encode()
normal = values[np.isfinite(values) & (np.abs(values) >= np.finfo(float).tiny)]
cells = "".join(f"{v!r}\\n" for v in normal.tolist()).encode()
assert (_kernels.parse_block(cells, 0, normal.size, 1).ravel().view(np.uint64) == normal.view(np.uint64)).all()
simulate_em(RatePair(constant(1.2), constant(0.1), 200.0), 20.0, TimeGrid(0.0, 0.05, 1001), 6, 3)
exact = next(_exact_replicates(RatePair(constant(0.4), constant(0.1), 200.0), 20.0, TimeGrid(0.0, 0.05, 1001), 7, 3, [0]))
sample_lag_cov(exact, sample_mean(exact))
assert _kernels.count_lines(cells, 0) == normal.size
x = np.linspace(0.0, 50.0, 501)
NaturalSpline(x, np.cos(x))
"""


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_the_kernels_build_clean_and_run_under_the_undefined_behaviour_sanitizer(fresh_install):
    # in a child process, so that a sanitizer abort fails this test alone
    flags = ["-Wall", "-Wextra", "-Werror", "-fsanitize=undefined", "-fno-sanitize-recover=all"]
    source = fresh_install / _kernels.SOURCE.name
    env = {**os.environ, "PYTHONPATH": str(Path(_kernels.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _SANITIZED_RUN, str(source), *flags], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
