"""Fixed reference snippets that set the speed scale of the end-to-end times.

The measuring machine is shared, and its speed drifts by 10-40% over
seconds to minutes with load from outside the process; process CPU
time drifts as much as wall time.  A `Sampler` runs a short fixed
snippet every PERIOD_S of an op, from a SIGALRM handler, so the samples
see the machine at the same moments as the op.  The runner takes the
snippets' time out of the op's time and divides the rest by the op's
slowdown: the snippets' mean time over SNIPPET_NOMINAL_S.  A scaled
time is then the op's time at the speed where the snippet takes
SNIPPET_NOMINAL_S, and a slow stretch moves the op and its samples
alike.  Set-up is scaled by snippets timed right after it.

The snippet imitates the two kinds of code sidiff spends most of its
time in, scalar Python arithmetic and per-step numpy on small arrays,
without calling sidiff, so a change to the library never moves it.  It
touches no large array, so it leaves the op's caches as they were.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# the snippet's time at typical speed on the measuring machine
# (2 vCPUs, Intel Xeon, Python 3.11, numpy 2.4)
SNIPPET_NOMINAL_S = 0.001

# one sample every 50 ms costs about 2% of an op
PERIOD_S = 0.05


def _python_floats(n: int) -> float:
    # scalar float arithmetic and calls, like adaptive Simpson quadrature
    def f(x):
        return 0.4 + 0.1 * math.sin(x) * math.exp(-0.01 * x)

    total = 0.0
    h = 50.0 / n
    for i in range(n):
        a = i * h
        total += h / 6.0 * (f(a) + 4.0 * f(a + 0.5 * h) + f(a + h))
    return total


def _small_arrays(steps: int, rng: np.random.Generator) -> float:
    # per-step numpy on 50-element arrays, like the Euler-Maruyama loop
    x = np.full(50, 0.1)
    for _ in range(steps):
        dw = rng.standard_normal(50) * 0.1
        x = x + 0.01 * x * (1.0 - x) + np.sqrt(0.01 * x * x) * dw
        np.clip(x, 1e-9, 1.0 - 1e-9, out=x)
    return float(x.sum())


def snippet() -> float:
    """Run the fixed snippet once; the result is a checksum."""
    return _python_floats(400) + _small_arrays(25, np.random.default_rng(0))


def slowdown(runs: int = 100, clock=time.perf_counter) -> float:
    """Mean time of `runs` snippets over SNIPPET_NOMINAL_S."""
    snippet()  # the first call pays numpy's lazy set-up
    start = clock()
    for _ in range(runs):
        snippet()
    return (clock() - start) / runs / SNIPPET_NOMINAL_S


class Sampler:
    """Times `snippet` every PERIOD_S of wall time while the block runs.

    `spent` is the time the samples took, to be taken out of the
    block's time; `slowdown()` is their mean over SNIPPET_NOMINAL_S, or
    None when the block ended before the first sample.  Must run in the
    main thread.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        if self._busy:  # a tick delayed past the next one; count it once
            return
        self._busy = True
        try:
            start = self.clock()
            snippet()
            took = self.clock() - start
            self.samples.append(took)
            self.spent += took
        finally:
            self._busy = False

    def slowdown(self) -> float | None:
        if not self.samples:
            return None
        return sum(self.samples) / len(self.samples) / SNIPPET_NOMINAL_S
