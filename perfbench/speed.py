"""A fixed calibration kernel that tracks how fast the machine runs right now.

The benchmark runs on a shared 2-core machine whose speed drifts by a
factor of about 1.5 over tens of seconds as other tenants come and go;
a process's CPU time drifts with it.  Measured over 20 s windows on that
machine, the median raw time of one operation had an interquartile range
of 26-30 % of its median, and the median of (operation time / kernel
time measured next to it) one of 1.5-7 %.  So every operation is timed
between two runs of this kernel and its time is scaled by
``REFERENCE_S / kernel time``: seconds at the machine's reference speed.

The kernel does not touch steinperm.  It mixes the two kinds of work the
program does: pure-Python rational and integer arithmetic, and numpy
gathers and row sums over int64 arrays the size of the L2 cache (2 MiB).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# The kernel's fastest time on the reference machine (2 vCPUs, Xeon,
# 2 MiB L2 per core): 15.1 ms over 400 runs, median 25.0 ms.
REFERENCE_S = 0.015


class Speed:
    def __init__(self) -> None:
        rng = np.random.default_rng(20261017)
        self._table = rng.integers(-50, 50, size=(4096, 64))
        self._index = np.argsort(rng.random((4096, 64)), axis=1)
        self.samples: list[float] = []

    def kernel_seconds(self) -> float:
        t = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1500):
            total += Fraction(1, i % 89 + 1)
        acc = 0
        for i in range(40000):
            acc += i * i
        for _ in range(8):
            np.take_along_axis(self._table, self._index, axis=1).sum(axis=1)
        dt = time.perf_counter() - t
        self.samples.append(dt)
        return dt

    def at_reference(self, raw: float, before: float, after: float) -> float:
        """Scale a time measured between two kernel runs to reference speed."""
        return raw * REFERENCE_S * 2 / (before + after)

    def slowdown(self) -> float:
        """Median kernel time over the reference: 1 on an idle machine."""
        return statistics.median(self.samples) / REFERENCE_S
