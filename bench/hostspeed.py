"""Host-speed probe: rescales measured times to a reference host speed.

The shared host this benchmark runs on changes speed by tens of percent over
seconds to minutes (other tenants' load on the cores, caches and memory), and
a pass of a workload cannot outlast that drift.  So the benchmark times a
fixed kernel, independent of poslinops, every PROBE_EVERY seconds between
tasks, and scales each task's time by REFERENCE_S / (the kernel's median time
around that task).  A change to poslinops moves the task times and not the
kernel, so it shows in full; a slow stretch of the host moves both and mostly
cancels.  Mostly: on the tuning host a 1.6x swing in kernel speed moved
memory-heavy tasks by only 0.63-0.9 of it (in log terms), so such tasks come
out a little slower when the host is fast.

The kernel mixes what the workloads spend their time on: interpreted Python,
numpy arithmetic on freshly mapped (page-faulting) memory, and a small matrix
product.  Set-up time is rescaled the same way by STARTUP_PROBE.
"""

from __future__ import annotations

import bisect
import mmap
import statistics
import time

import numpy as np

# Roughly the kernel's median time on the 2-vCPU host the benchmark was tuned
# on (numpy 2.4, OpenBLAS on one thread); it only sets the scale of the output.
REFERENCE_S = 0.030
PROBE_EVERY = 0.5
# A task's speed is the median of the probes within WINDOW_S of its middle,
# and at least the MIN_PROBES nearest ones.
WINDOW_S = 2.0
MIN_PROBES = 5

# Set-up is timed against a fresh interpreter importing standard-library
# modules, started right before each timed import: process start, file reads
# and module loading, the same kinds of work as the import, none of it ours.
STARTUP_PROBE = "import json, decimal, email.parser, http.client"
STARTUP_REFERENCE_S = 0.150

_LOOP = 120_000
_FRESH_BYTES = 4 << 20      # mapped anew each time, so its pages fault in
_FRESH_MAPS = 3
_MAT = np.random.default_rng(0).random((128, 128))


def kernel():
    """A fixed mix of interpreter, fresh-memory and BLAS work (about 30 ms)."""
    acc = 0
    for i in range(_LOOP):
        acc += i * i
    total = 0.0
    for _ in range(_FRESH_MAPS):
        with mmap.mmap(-1, _FRESH_BYTES) as mem:
            arr = np.frombuffer(mem, dtype=np.float64)
            arr.fill(1.25)
            np.exp(arr, out=arr)
            total += float(arr.sum())
            del arr
    for _ in range(3):
        total += float((_MAT @ _MAT)[0, 0])
    return acc + total


class Probe:
    """Times the kernel now and then, and converts times to reference speed."""

    def __init__(self):
        self.at = []        # probe mid-times, increasing
        self.took = []      # probe durations
        self.last = -float("inf")

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self.last = t1

    def maybe_sample(self):
        """Sample if PROBE_EVERY seconds have passed since the last probe."""
        if time.perf_counter() - self.last >= PROBE_EVERY:
            self.sample()

    def kernel_s_at(self, t):
        """Median kernel time of the probes around time ``t``."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        if hi - lo < MIN_PROBES:
            # widen to the MIN_PROBES probes nearest to t
            near = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - t))
            return statistics.median(self.took[i] for i in near[:MIN_PROBES])
        return statistics.median(self.took[lo:hi])

    def scale(self, seconds, t0, t1):
        """``seconds`` measured over [t0, t1], at reference host speed."""
        return seconds * REFERENCE_S / self.kernel_s_at(0.5 * (t0 + t1))

    def speed(self):
        """Median host speed over the run, relative to the reference (1 = as fast)."""
        return REFERENCE_S / statistics.median(self.took)
