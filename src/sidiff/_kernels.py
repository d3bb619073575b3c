"""The C kernels of `_kernels.c`, compiled with `cc` on first use.

`library()` builds the shared library into the package's __pycache__
directory the first time any process asks for it, under a name that
hashes the source, the compiler flags and the interpreter's cache tag,
so a changed source builds anew.  The build writes a temporary name and
renames it into place, so processes that build at once are safe.  When
the build or the load fails for any reason (no compiler, a read-only
package directory, a timeout), `library()` returns None and the callers
run their numpy or Python loops, which give the same bytes.  There is
nothing to configure.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import sys
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
# no fused multiply-add and no reassociation: each operation rounds on its own, as numpy's do
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
BUILD_TIMEOUT_S = 60


@functools.cache
def library() -> ctypes.CDLL | None:
    """The loaded kernels, built on the first call; None where they cannot be built or loaded."""
    try:
        return _load(_build())
    except (OSError, AttributeError):  # no compiler, no write access, a failed build or load
        return None


def _build() -> Path:
    """The compiled library's path, compiling it when it is not there yet."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(), sys.implementation.cache_tag.encode()]))
    target = SOURCE.parent / "__pycache__" / f"_kernels-{key.hexdigest()[:16]}.so"
    if not target.exists():
        import subprocess

        target.parent.mkdir(exist_ok=True)
        partial = target.with_name(f"{target.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            subprocess.run(
                ["cc", *FLAGS, "-o", str(partial), str(SOURCE)],
                check=True, capture_output=True, timeout=BUILD_TIMEOUT_S,
            )
            os.replace(partial, target)
        except subprocess.SubprocessError as exc:
            raise OSError(f"could not build {target.name}") from exc
        finally:
            partial.unlink(missing_ok=True)
    return target


def _load(path: Path) -> ctypes.CDLL:
    """The library at path, with each kernel's argument and result types declared."""
    lib = ctypes.CDLL(str(path))
    # arrays are checked for dtype and layout on every call
    array, size, real = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"), ctypes.c_long, ctypes.c_double
    lib.sidiff_em_steps.restype = None
    lib.sidiff_em_steps.argtypes = [size, size, array, array, array, *[real] * 6, ctypes.c_int, array, array]
    lib.sidiff_spline_solve.restype = ctypes.c_int
    lib.sidiff_spline_solve.argtypes = [size, array, array, array]
    return lib
