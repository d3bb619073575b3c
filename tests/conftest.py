import pytest

from sidiff import _kernels


@pytest.fixture
def kernel_states(monkeypatch):
    """Loop over this to run a test's body twice: with the compiled C
    kernels, then with them forced off so that the numpy and Python
    loops run.  The first pass is left out where the kernels cannot be
    built; the loop yields the name of the pass."""

    def states():
        if _kernels.library() is not None:
            yield "kernel"
        monkeypatch.setattr(_kernels, "library", lambda: None)
        yield "fallback"

    return states()


@pytest.fixture(scope="session")
def built_kernels():
    """Skips a test where the compiled C kernels cannot be built."""
    if _kernels.library() is None:
        pytest.skip("the C kernels cannot be built here")
