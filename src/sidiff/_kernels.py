"""The C kernels of `_kernels.c`, compiled with `cc` on first use.

`library()` builds the shared library into the package's __pycache__
directory the first time any process asks for it, under a name of the
interpreter's cache tag and a hash of the source and the compiler
flags, so a changed source builds anew and its build then removes the
older ones of the same tag.  The build writes a temporary name and
renames it into place, so processes that build at once are safe.  When
the build or the load fails for any reason (no compiler, a read-only
package directory, a timeout), `library()` returns None and each caller
runs its one Python twin of the kernel, which gives the same bytes.
There is nothing to configure.

Both CSV kernels read one table, worked out with Python integers on
first use, not at import: the 128-bit significands of 5**q as
fast_float tabulates them (`powers_of_five()`), which are also those of
10**q = 5**q * 2**q.  The kernels take raw pointers: each call site
checks its arrays' dtype and layout once, with `check_arrays`.
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
CELL_BYTES = 25  # the longest repr of a double, -2.2250738585072014e-308, and a separator


@functools.cache
def library() -> ctypes.CDLL | None:
    """The loaded kernels, built on the first call; None where they cannot be built or loaded."""
    try:
        return _load(_build())
    except (OSError, AttributeError):  # no compiler, no write access, a failed build or load
        return None


def _build() -> Path:
    """The compiled library's path, compiling it when it is not there yet."""
    key = hashlib.sha256(b"\0".join([SOURCE.read_bytes(), " ".join(FLAGS).encode()])).hexdigest()[:16]
    tag = sys.implementation.cache_tag
    target = SOURCE.parent / "__pycache__" / f"_kernels-{tag}-{key}.so"
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
        for old in target.parent.glob(f"_kernels-{tag}-*.so"):
            if old != target:
                old.unlink(missing_ok=True)
    return target


def _load(path: Path) -> ctypes.CDLL:
    """The library at path, with each kernel's argument and result types declared."""
    lib = ctypes.CDLL(str(path))
    # raw pointers: each call site checks its arrays' dtype and layout itself
    pointer, size, real = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.sidiff_em_steps.restype = None
    lib.sidiff_em_steps.argtypes = [size, size, *[pointer] * 3, *[real] * 6, ctypes.c_int, pointer, pointer]
    lib.sidiff_exact_paths.restype = None
    lib.sidiff_exact_paths.argtypes = [size, size, *[pointer] * 3]
    lib.sidiff_lag_cov.restype = None
    lib.sidiff_lag_cov.argtypes = [size, size, *[pointer] * 3]
    lib.sidiff_spline_solve.restype = ctypes.c_int
    lib.sidiff_spline_solve.argtypes = [size, *[pointer] * 3]
    lib.sidiff_parse_block.restype = ctypes.c_int
    lib.sidiff_parse_block.argtypes = [pointer, size, size, size, pointer, ctypes.c_int, ctypes.c_int, pointer]
    lib.sidiff_format_block.restype = size
    lib.sidiff_format_block.argtypes = [size, size, pointer, pointer, ctypes.c_int, pointer]
    lib.sidiff_count_lines.restype = size
    lib.sidiff_count_lines.argtypes = [pointer, size]
    return lib


def format_block(block: np.ndarray, out: np.ndarray) -> int:
    """The rows of a 2-d float64 block as CSV text, through the loaded
    library's `sidiff_format_block`.

    Each cell is written as repr writes it, followed by ',' or, at the
    end of its row, '\n', into the uint8 array out, which holds at least
    CELL_BYTES bytes per cell.  Returns the number of bytes written.
    """
    check_arrays(block)
    check_arrays(out, dtype=np.uint8)
    if block.ndim != 2 or out.size < CELL_BYTES * block.size:
        raise ValueError(f"need a 2-d block and {CELL_BYTES} bytes of out per cell")
    first, _, powers = powers_of_five()
    return library().sidiff_format_block(*block.shape, block.ctypes.data, powers.ctypes.data, first, out.ctypes.data)


def parse_block(text: bytes, start: int, rows: int, cols: int) -> np.ndarray | None:
    """text[start:] as a (rows, cols) float64 array, through the loaded
    library's `sidiff_parse_block`; None where the kernel hands it back.

    The kernel takes exactly rows lines of cols cells in the grammar
    -?digits(.digits)?([eE][+-]?digits)?, each cell followed by ',' or,
    at the end of its line, '\n', and gives each cell the double float()
    gives.  It hands back any other text, a cell of more than 19
    significant digits, and a cell with a nonzero digit whose double is
    not a normal finite one.  text is read in place, not copied.
    """
    first, last, powers = powers_of_five()
    values = np.empty((rows, cols))
    body = np.frombuffer(text, dtype=np.uint8)[start:]
    refused = library().sidiff_parse_block(
        body.ctypes.data, body.size, rows, cols, powers.ctypes.data, first, last, values.ctypes.data
    )
    return None if refused else values


def count_lines(text: bytes, start: int) -> int:
    """text[start:].count(b"\n"), through the loaded library's
    `sidiff_count_lines`; text is read in place, not copied."""
    body = np.frombuffer(text, dtype=np.uint8)[start:]
    return library().sidiff_count_lines(body.ctypes.data, body.size)


def check_arrays(*arrays: np.ndarray, dtype=np.float64) -> None:
    """Refuses arrays a kernel cannot read through a raw pointer: those not
    C-contiguous or not of dtype."""
    for array in arrays:
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise TypeError(f"a kernel reads C-contiguous {np.dtype(dtype)} arrays, not {array.dtype} with strides {array.strides}")


@functools.cache
def powers_of_five() -> tuple[int, int, np.ndarray]:
    """(first, last, significands): the 128-bit significand of 5**q as
    its high and low 64-bit words, significands[i], for q = first + i.

    The range holds the q of every decimal w * 10**q, 0 < w < 2**64, whose
    double is neither zero nor infinite, for the reader, and runs on to
    324 for the formatter, which scales 5e-324 by 10**324.  They are also
    the significands of 10**q = 5**q * 2**q.  The formatter reads each
    entry plus one, its floor + 1, except for q from -27 to -1, where
    fast_float has rounded it up already: an upper bound of 10**q, at
    most one unit of 128 bits above it, with the binary exponent
    floor(q * log2(10)) - 127.

    Each significand is fast_float's, worked out with Python integers on
    the first call: 5**q truncated to 128 bits, except that where 5**-q
    fits in 64 bits (q from -27 to -1) it is rounded up.
    """
    first, last = -342, 324
    words = []
    for q in range(first, last + 1):
        num, den = (5**q, 1) if q >= 0 else (1, 5**-q)
        shift = num.bit_length() - den.bit_length() - 128  # num / den / 2**shift lies in (2**127, 2**129)
        significand = (num << max(-shift, 0)) // (den << max(shift, 0))
        significand = (significand >> (significand.bit_length() - 128)) + (-27 <= q < 0)
        words.append((significand >> 64, significand & (2**64 - 1)))
    return first, last, np.array(words, dtype=np.uint64)
