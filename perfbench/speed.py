"""Machine-speed calibration for the timing metrics.

On a shared machine the speed of a core drifts by up to a factor of about 2
over minutes (measured on the 2-core machine the baseline ran on: the
bundled audit took between 15.6 s and 28.6 s in ten consecutive runs, with
CPU time moving in step).  The benchmark therefore times a fixed calibration
kernel around every batch and reports times at a reference speed:

    reported = measured * REFERENCE_S / median(kernel times of the batch)

The kernel does the kinds of work vexp does -- Python-level dispatch, numpy
ufuncs on arrays of a few thousand points, a BLAS matrix-vector product --
but calls no vexp code, so a change to vexp cannot move it.  The measured
times and the speed factors are recorded next to every result.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.020    # kernel time that maps to a factor of 1
INTERVAL_S = 1.0       # least time between samples inside a batch
REPEATS = 3            # a sample is the fastest of this many kernel runs


class SpeedMeter:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._x = np.linspace(-8.0, 8.0, 8192)
        self._buf = np.empty_like(self._x)
        rng = np.random.default_rng(0)
        self._mat = rng.standard_normal((8192, 128))
        self._vec = rng.standard_normal(128)
        self._nodes = [_Leaf(), _Pair()] * 50
        self.samples: list[float] = []
        self.spent_s = 0.0       # wall time spent calibrating
        self.spent_cpu_s = 0.0   # process CPU time spent calibrating
        self._last = -float("inf")

    def _kernel(self) -> float:
        acc = 0.0
        buf = self._buf
        for _ in range(60):
            np.multiply(self._x, self._x, out=buf)
            np.negative(buf, out=buf)
            np.exp(buf, out=buf)
            np.sin(self._x, out=buf)
            acc += float(buf.sum())
            acc += float((self._mat @ self._vec)[0])
            for node in self._nodes:
                acc += _dispatch(node)
        return acc

    def sample(self) -> None:
        t0, c0 = self.clock(), time.process_time()
        best = float("inf")
        for _ in range(REPEATS):
            t = self.clock()
            self._kernel()
            best = min(best, self.clock() - t)
        self.samples.append(best)
        self._last = self.clock()
        self.spent_s += self._last - t0
        self.spent_cpu_s += time.process_time() - c0

    def tick(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if self.clock() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """Kernel time over reference time: above 1 on a slow machine."""
        return statistics.median(self.samples) / REFERENCE_S


class _Leaf:
    pass


class _Pair(_Leaf):
    pass


def _dispatch(node) -> float:
    return 1.0 if isinstance(node, _Pair) else 0.5
