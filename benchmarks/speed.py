"""Machine-speed gauge: a fixed kernel timed next to each item.

On the 2-vCPU virtual machine the benchmark was tuned on, the speed of a
process changes by 20 to 40 % from one second to the next, and the kernel below slows down
together with the program (no steal time is reported, so process CPU time
drifts as much as wall time).  Timing the kernel just before and just after
each item and scaling the item's time by ``REFERENCE_S`` over the mean of the
two kernel times gives the item's time at a fixed reference speed.  In
probes of 8 to 10 passes per workload, the interquartile spread of items per
second across passes fell from 6-18 % for wall time to 2-6 % for scaled
time, and the full range from 13-43 % to 3-8 %.

The default kernel works on a 256-entry dict and small ints: it stays in the
first level cache, so what an item leaves in the caches barely changes its
time, and it needs no import, so it can also gauge a fresh process before
``import fjpower``.  It tracks interpreter-bound and cache-resident numpy
work.  Work that streams arrays of megabytes through the caches slows down
with the machine's memory traffic as well, which the dict kernel does not
feel; ``stream_kernel_s`` times one such reduction instead.
"""
from __future__ import annotations

import functools
import statistics
from time import perf_counter

REFERENCE_S = 1e-3   # nominal kernel time: sets the scale of scaled times
STREAM_N = 600       # side of the stream kernel's matrix: 2.9 MB


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel."""
    start = perf_counter()
    acc = 0
    table = {}
    for i in range(8000):
        table[i & 255] = acc
        acc += (i * i) % 7
    return perf_counter() - start


def stream_kernel_s() -> float:
    """Wall time of one column reduction of a scaled STREAM_N x STREAM_N matrix,
    the operation a dense perception step performs."""
    matrix, weights = _stream_operands()
    start = perf_counter()
    (weights[:, None] * matrix).sum(axis=0)
    return perf_counter() - start


@functools.cache
def _stream_operands():
    import numpy as np

    return np.full((STREAM_N, STREAM_N), 0.5), np.full(STREAM_N, 0.25)


class Gauge:
    """Kernel samples for one pass: one before each timed call, and one more
    at the end, so that every call lies between two samples."""

    def __init__(self, kernel=kernel_s):
        self.kernel = kernel
        self.samples: list[float] = []

    def sample(self) -> int:
        """Run the kernel; return the index of the sample."""
        self.samples.append(self.kernel())
        return len(self.samples) - 1

    def scale(self, j: int) -> float:
        """Factor that scales a call made between samples j and j + 1."""
        return 2.0 * REFERENCE_S / (self.samples[j] + self.samples[j + 1])

    @property
    def spent_s(self) -> float:
        return sum(self.samples)

    def scale_rest(self, seconds: float) -> float:
        """Scale time spent outside the gauged calls by the pass's median speed."""
        if not self.samples:
            return seconds
        return seconds * REFERENCE_S / statistics.median(self.samples)
