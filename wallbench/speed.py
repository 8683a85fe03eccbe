"""Host speed gauge: a fixed kernel timed between operations.

On a shared host the whole machine speeds up and slows down by 10-35%
over seconds, and every layer of an operation moves with it (measured:
fold, engine and storage time of consecutive service jobs all rise
together).  That drift is as large as the regressions the benchmark
must catch, so the end-to-end times are also reported scaled to a
reference speed: each operation's time is multiplied by
``REFERENCE_S / kernel time`` measured just before it.  The kernel is
the benchmark's own code — a NumPy sort and an interpreter loop, the
two kinds of work the program does, neither allocating in steady state
— so no change to the program can move it, beyond the cache and clock
state an operation leaves behind (the fastest of a few back-to-back
runs is taken to shed that).  Times as measured are printed beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel time on the host the bounds were set on (2-vCPU
#: x86-64 Xeon VM, Python 3.11, NumPy 2.4).
REFERENCE_S = 0.00095

#: Kernel runs per sample; the sample is their minimum, so caches the
#: preceding operation left cold (which depend on the program) and
#: one-off interruptions do not count.
RUNS = 3

#: Samples around an operation whose median is the speed it ran at.
WINDOW = 9


class SpeedGauge:
    """Times the kernel on demand and turns the samples around a moment
    into a factor that scales a time measured then to the reference
    speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 30, size=20000)
        self._buf = np.empty_like(self._keys)
        self.samples: list = []

    def _kernel(self) -> int:
        np.copyto(self._buf, self._keys)
        self._buf.sort()
        acc = 0
        for i in range(20000):
            acc = (acc + i) & 255
        return acc

    def sample(self) -> float:
        """Take one sample (the fastest of ``RUNS`` kernel runs)."""
        best = float("inf")
        for _ in range(RUNS):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        return best

    def factor(self, index: int) -> float:
        """``REFERENCE_S`` over the median of the ``WINDOW`` samples
        centred on sample ``index``: a time measured just after that
        sample, times this, reads as at reference speed."""
        lo = max(0, index - WINDOW // 2)
        return REFERENCE_S / statistics.median(
            self.samples[lo:index + WINDOW // 2 + 1])
