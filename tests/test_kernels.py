"""Building and loading the C kernels, the CSV float formatter, and the
fallback when the build fails."""

import shutil

import numpy as np
import pytest

from sidiff import NaturalSpline, RatePair, TimeGrid, _kernels, constant, simulate_em
from sidiff.dataio import _write_csv


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
    """Euler-Maruyama paths with clamp hits, a 501-knot spline fit and an
    all-float and a mixed CSV of both, as bytes."""
    ps = simulate_em(RatePair(constant(1.2), constant(0.1), 200.0), 20.0, TimeGrid(0.0, 0.05, 1001), 6, 3)
    x = np.linspace(0.0, 50.0, 501)
    c = NaturalSpline(x, np.cos(x)).c
    _write_csv(str(directory / "paths.csv"), ["t", "a", "b"], [ps.grid.times, *ps.values[:2]], meta=({}, 3))
    _write_csv(str(directory / "spline.csv"), ["knot", "c0", "c1"], [[f"k{i}" for i in range(500)], *c[:2]])
    csvs = [(directory / name).read_bytes() for name in ("paths.csv", "spline.csv")]
    return ps.values.tobytes(), ps.meta["clamp_count"], c.tobytes(), *csvs


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_the_library_is_built_once_per_source_into_pycache(fresh_install):
    assert _kernels.library() is not None
    cache = fresh_install / "__pycache__"
    built = {p.name for p in cache.iterdir()}
    assert len(built) == 1 and next(iter(built)).startswith("_kernels-")
    # a changed source builds anew beside the old library; no temporary file stays
    source = fresh_install / _kernels.SOURCE.name
    source.write_text(source.read_text() + "/* changed */\n")
    _kernels.library.cache_clear()
    assert _kernels.library() is not None
    rebuilt = {p.name for p in cache.iterdir()}
    assert len(rebuilt) == 2 and built < rebuilt and all(name.endswith(".so") for name in rebuilt)


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
    """values as the C formatter writes them, one per line, and its count of
    cells handed to CPython's formatter."""
    block = np.array(values, dtype=float).reshape(-1, 1)
    out = np.empty(_kernels.CELL_BYTES * block.size, dtype=np.uint8)
    written, fallbacks = _kernels.format_block(block, out)
    return out[:written].tobytes(), fallbacks


def _reprs(values):
    return "".join(f"{v!r}\n" for v in np.array(values, dtype=float).tolist()).encode()


def test_the_formatter_writes_repr_of_random_doubles_mostly_without_cpython(built_kernels):
    bits = np.random.default_rng(27).integers(0, 2**64, size=1_200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:1_000_000]
    assert values.size == 1_000_000
    text, fallbacks = _formatted(values)
    assert text == _reprs(values)
    # both paths run: Grisu3 decides nearly every cell, CPython the rest
    assert 0 < fallbacks < 0.02 * values.size


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
    text, _ = _formatted(values)
    assert text == _reprs(values)


def test_the_formatter_hands_zeros_and_non_finite_cells_to_cpython(built_kernels):
    text, fallbacks = _formatted([0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, -2.5])
    assert text == b"0.0\n-0.0\ninf\n-inf\nnan\n0.1\n-2.5\n"
    assert fallbacks == 5


def test_the_formatter_separates_cells_and_reports_their_ends(built_kernels):
    block = np.array([[1.0, -0.5, 1e-5], [2.0, 1e16, 0.0]])
    out = np.empty(_kernels.CELL_BYTES * block.size, dtype=np.uint8)
    ends = np.empty(block.shape, dtype=np.int64)
    written, _ = _kernels.format_block(block, out, ends)
    assert out[:written].tobytes() == b"1.0,-0.5,1e-05\n2.0,1e+16,0.0\n"
    assert ends.tolist() == [[4, 9, 15], [19, 25, 29]]
    with pytest.raises(ValueError, match="bytes of out per cell"):
        _kernels.format_block(block, out[:-1])
    with pytest.raises(TypeError, match="C-contiguous"):
        _kernels.format_block(np.asfortranarray(block), out)


def test_the_powers_of_ten_are_rounded_to_64_bits(built_kernels):
    first, last, significands, exponents = _kernels.powers_of_ten()
    assert first <= -307 and last >= 324 and significands.size == exponents.size == last - first + 1
    # the table's ends and 10**0 as double-conversion lists them
    assert _kernels._power_of_ten(-348) == (0xFA8FD5A0081C0288, -1220)
    assert _kernels._power_of_ten(340) == (0xAF87023B9BF0EE6B, 1066)
    assert (int(significands[-first]), int(exponents[-first])) == (1 << 63, -63)
    for k in (first, -1, 1, 22, 23, last):
        f, e = _kernels._power_of_ten(k)
        num, den = (10**k * 2 ** max(-e, 0), 2 ** max(e, 0)) if k >= 0 else (2 ** -e, 10**-k)
        assert 1 << 63 <= f < 1 << 64 and abs(2 * (f * den - num)) <= den
