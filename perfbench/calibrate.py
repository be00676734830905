"""Speed calibration: a fixed pure-Python kernel timed between operations.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to 1.7x over tens of seconds (other tenants, cache and frequency
sharing); the same pass of operations then takes 42 ms in one 5-second
window and 63 ms in the next. For pure-Python work much of the drift is
common to all code run in this process, so the harness times this kernel
between operations and scales each operation's time by REF_NS / (the
kernel's mean time around it): the reported times are the times on a host
where the kernel takes REF_NS. Over 90 s of sweep this cut the coefficient
of variation of 5-second windows from 0.17 to 0.034. It does not follow the
numpy-bound verify grid nor the start-up of a fresh interpreter (set-up
time); those are left raw.

The kernel is part of the benchmark, not of the program, so a change to the
program moves the scaled times in proportion to the raw ones. Raw
wall-clock times are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import time

# nominal kernel time: about what one kernel call takes on an unloaded
# 2-core Intel Xeon VM with CPython 3.11
REF_NS = 1_000_000
KERNEL_ITERATIONS = 2000
# a calibration sample is due after this much time spent in operations
EVERY_NS = 50_000_000
# at most this many kernel calls after one long operation
MAX_BURST = 10
# the speed around an operation is the mean of the samples this close to it,
# or twice its duration if longer: the speed changes within a second, so a
# short window tracks it best, but no kernel runs during a long operation
WINDOW_NS = 250_000_000


def kernel(n: int = KERNEL_ITERATIONS) -> float:
    """Float arithmetic, math calls, tuple and dict traffic: the program's mix."""
    acc = 0.0
    d = {}
    for i in range(n):
        x = (i % 97 + 1) * 0.013
        acc += math.exp(-x) * math.log1p(x) + x**1.5
        d[i & 63] = (x, acc)
        acc -= math.floor(acc)
    return acc


class Calibration:
    """Kernel samples (mid time, duration) in time order, and the scale they give."""

    def __init__(self, clock=time.perf_counter_ns, run_kernel=kernel):
        self.clock = clock
        self.run_kernel = run_kernel
        self.times: list[int] = []
        self.durations: list[int] = []
        self._last = None
        self._scales: dict = {}

    def sample(self, k: int = 1) -> None:
        for _ in range(k):
            t0 = self.clock()
            self.run_kernel()
            t1 = self.clock()
            self.times.append((t0 + t1) // 2)
            self.durations.append(t1 - t0)
        self._last = self.clock()

    def maybe_sample(self) -> None:
        """Sample once EVERY_NS has passed, in a burst after a long operation."""
        now = self.clock()
        if self._last is None:
            self.sample(3)
        elif now - self._last >= EVERY_NS:
            self.sample(min(MAX_BURST, (now - self._last) // EVERY_NS))

    def scale(self, t0: int, t1: int) -> float:
        """REF_NS / the mean kernel time of samples near [t0, t1].

        Near is within WINDOW_NS or twice the duration, whichever is longer;
        with no sample that near, the nearest sample on either side.
        """
        pad = max(WINDOW_NS, 2 * (t1 - t0))
        lo = bisect.bisect_left(self.times, t0 - pad)
        hi = bisect.bisect_right(self.times, t1 + pad)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        if lo == hi:
            raise ValueError("no calibration samples")
        if (lo, hi) not in self._scales:
            self._scales[lo, hi] = REF_NS * (hi - lo) / sum(self.durations[lo:hi])
        return self._scales[lo, hi]
