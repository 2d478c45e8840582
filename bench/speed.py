"""Host speed calibration for the timed metrics.

The shared 2-vCPU host this benchmark was sized on changes its compute speed
by up to 1.6x within seconds: back-to-back timings of a pure-Python loop, a
32x32 ``eigh`` and a 160x160 matmul all slow down and speed up together,
while the program and its inputs stay the same.  Raw op times therefore
spread by 20-40% between runs of the same code.

A fixed compute kernel, independent of dilatory, is timed before every op
and once after the last one.  An op's time is rescaled to the reference
speed by ``REF_S / m``, where ``m`` is the median of the kernel times taken
over a span around the op: as long as the op itself, and at least
``MIN_SPAN_S``, on each side.  A long op runs through the host's changes of
speed and averages them, so its factor comes from a span as long as it.  A
faster or slower program moves the rescaled times by the same factor as the
raw ones; only the host's speed is divided out.

Ops that a workload marks as memory-bound keep their raw times.  These are
rep-audit's SVDs whose full U is 8 MiB or more, twice the L2 cache: their
speed follows the kernel's only in part.  Over three passes in one process,
rescaling them raised the pass-to-pass variation of their summed time from
5% to 14%, and of rep-audit's p95 from 2% to 11%.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

# kernel time at the reference speed: about its median on the host the
# benchmark was sized on (Intel Xeon, 2 vCPUs, OpenBLAS with 1 thread)
REF_S = 0.0015
MIN_SPAN_S = 0.05
# kernel runs on each side of a set-up step
AROUND = 3


class Kernel:
    """A fixed mix of interpreter work, small LAPACK and BLAS calls and JSON,
    the mix that dominates dilatory's short ops.  It makes almost no objects
    the garbage collector tracks, so it never pays for collecting the
    program's heap."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 32))
        self.a = a + a.T
        self.b = rng.standard_normal((128, 128))
        self.row = [float(x) for x in rng.standard_normal(64)]
        self.stamps, self.times = [], []
        self.run()  # the first LAPACK call of a process is slow

    def run(self) -> float:
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            table[i] = i * 0.5
        for _ in range(4):
            np.linalg.eigh(self.a)
        self.b @ self.b
        for _ in range(4):
            json.loads(json.dumps(self.row))
        return time.perf_counter() - t0

    def sample(self):
        """One kernel run between ops, kept for ``rescale``."""
        self.stamps.append(time.perf_counter())
        self.times.append(self.run())

    def runs(self) -> list:
        """``AROUND`` kernel times, for one side of a set-up step."""
        return [self.run() for _ in range(AROUND)]

    def rescale(self, times, starts, raw) -> list:
        """Op times at the reference speed, except where ``raw[i]`` is true.
        Op ``i`` started at ``starts[i]`` and took ``times[i]``."""
        out = []
        for t, t0, keep in zip(times, starts, raw):
            if keep:
                out.append(t)
                continue
            span = max(t, MIN_SPAN_S)
            lo = bisect.bisect_left(self.stamps, t0 - span)
            hi = bisect.bisect_right(self.stamps, t0 + t + span)
            out.append(at_ref(t, self.times[lo:hi]))
        return out

    def summary(self) -> dict:
        return {
            "ref_s": REF_S,
            "kernel_median_s": statistics.median(self.times),
            "kernel_min_s": min(self.times),
            "kernel_max_s": max(self.times),
        }


def at_ref(seconds: float, kernel_times) -> float:
    """``seconds`` at the reference speed, given kernel times around them."""
    return seconds * REF_S / statistics.median(kernel_times)
