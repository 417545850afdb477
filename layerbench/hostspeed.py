"""Host-speed normalisation of measured times.

On a shared host the CPU a process gets changes by tens of percent from one
second to the next, and by up to 2.5x over minutes, while every template
slows by about the same factor.  A run measures the program *and* the host.
To take the host out, the timed loop runs a fixed pure-Python kernel between
ops (outside the op timings) and divides each op's time by the kernel's
local speed: the median of the kernel samples nearest in time to the op.
Normalised times read as seconds on a reference host on which the kernel
takes ``REFERENCE_SECONDS``.

The kernel imports nothing from the measured program, so no change to the
program moves it.
"""

from __future__ import annotations

import bisect
import statistics
import time

# The kernel's time on the reference host.  It is about the median kernel
# time on a 2-vCPU Xeon VM (2.1 GHz, CPython 3), so normalised figures
# stay close to raw ones there.
REFERENCE_SECONDS = 0.003
NEIGHBOURS = 5  # kernel samples taken on each side of an op for its local speed


# The kernel allocates nothing: every int it touches is a cached small int
# and the table is built once.  So its speed does not depend on the state of
# the process's heap, which the measured program changes.
_KEYS = tuple(range(256)) * 256
_TABLE = {key: key * 7 % 256 for key in range(256)}


def kernel() -> int:
    """Fixed interpreter work: dict lookups and integer xor over small ints."""
    table, total = _TABLE, 0
    for key in _KEYS:
        total ^= table[key ^ total]
    return total


class HostSpeed:
    """Kernel samples over a run, and the local host speed at any moment."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter at each sample's start
        self.seconds: list[float] = []

    def sample(self, repeat: int = 1) -> None:
        for _ in range(repeat):
            started = time.perf_counter()
            kernel()
            self.times.append(started)
            self.seconds.append(time.perf_counter() - started)

    def slowdown(self, at: float) -> float:
        """How much slower than the reference host the host ran around ``at``."""
        i = bisect.bisect_left(self.times, at)
        near = self.seconds[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return statistics.median(near) / REFERENCE_SECONDS

    def normalise(self, at: float, seconds: float) -> float:
        return seconds / self.slowdown(at)

    def median_ms(self) -> float:
        return statistics.median(self.seconds) * 1000 if self.seconds else 0.0
