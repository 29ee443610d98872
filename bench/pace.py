"""Host speed, sampled by a fixed reference kernel between operations.

The benchmark's timings are scaled to a reference host speed.  On a
shared virtual machine the speed of one vCPU can change by a factor of
two within seconds (a busy neighbour on the sibling hyperthread, memory
bandwidth); process CPU time slows with wall time, so neither clock
removes it.  A run therefore times ``kernel`` about every
``EVERY_S`` seconds, between operations, and multiplies each
operation's time by ``REFERENCE_MS / m``, where ``m`` is the median of
the ``2 * NEIGHBOURS`` kernel times nearest to the operation.  The
kernel is fixed here, outside the library, so no change to the library
moves it; what it does resembles what the operations do (Fraction
arithmetic and dict building, and passes over a 3 MB int64 array, the
size of an N = 5 order-8 tensor).
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

# Median kernel time, in ms, at the reference host speed: about what the
# kernel takes on an Intel Xeon vCPU at 2.1 GHz when the host is quiet.
REFERENCE_MS = 2.5
EVERY_S = 0.05
NEIGHBOURS = 5

_BLOCK = (np.arange(5**8, dtype=np.int64) % 1013).reshape((5,) * 8)


def kernel() -> None:
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i % 7 + 1, i % 11 + 1)
    {i: (i, str(i)) for i in range(1500)}
    _BLOCK + _BLOCK.transpose(1, 0, 2, 3, 4, 5, 6, 7)
    _BLOCK + _BLOCK.transpose(7, 6, 5, 4, 3, 2, 1, 0)


class Pace:
    """Kernel times of one process, and the scale they give at each moment."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_ms: list[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.kernel_ms.append((end - start) * 1000)
        self.spent_s += end - start
        self._last = end

    def tick(self) -> None:
        """Sample if ``EVERY_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self, at: float, exponent: float = 1.0) -> float:
        """Factor that takes a time measured around ``at`` to the reference
        speed, for work whose time grows as the kernel's to ``exponent``."""
        j = bisect.bisect(self.times, at)
        near = self.kernel_ms[max(0, j - NEIGHBOURS):j + NEIGHBOURS]
        return (REFERENCE_MS / statistics.median(near)) ** exponent

    def overall(self) -> float:
        """Factor for this process's whole life so far."""
        return REFERENCE_MS / statistics.median(self.kernel_ms)
