"""Building and loading the C kernels, and the fallback when that fails."""

import shutil

import numpy as np
import pytest

from sidiff import NaturalSpline, RatePair, TimeGrid, _kernels, constant, simulate_em


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


def _outputs():
    """Euler-Maruyama paths with clamp hits and a 501-knot spline fit, as bytes."""
    ps = simulate_em(RatePair(constant(1.2), constant(0.1), 200.0), 20.0, TimeGrid(0.0, 0.05, 1001), 6, 3)
    x = np.linspace(0.0, 50.0, 501)
    return ps.values.tobytes(), ps.meta["clamp_count"], NaturalSpline(x, np.cos(x)).c.tobytes()


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
    expected = _outputs()  # through the package's own kernels, where they can be built
    copy = tmp_path / _kernels.SOURCE.name
    shutil.copyfile(_kernels.SOURCE, copy)
    monkeypatch.setattr(_kernels, "SOURCE", copy)
    monkeypatch.setenv("PATH", str(tmp_path))  # no compiler to be found
    _kernels.library.cache_clear()
    try:
        assert _kernels.library() is None
        assert list((tmp_path / "__pycache__").iterdir()) == []
        assert _outputs() == expected
    finally:
        _kernels.library.cache_clear()
