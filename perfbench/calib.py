"""Machine-speed calibration for op latencies.

On a shared two-core machine the speed of the same op drifts by up to 2x
over seconds to minutes as other tenants come and go.  CPU time drifts the
same way, so it does not help.  The worker therefore runs this fixed kernel
between ops, about every ``INTERVAL_S``.  Each op latency is scaled by
``REFERENCE_S / local kernel time``: the time the op would take on a machine
where the kernel takes exactly ``REFERENCE_S``.

The kernel is a scalar Python loop over libm calls, like the integrand
callbacks, followed by a small vectorised numpy step, like the sampler.  It
was chosen by measurement on a 2-vCPU VM.  Each workload's ops ran for 4
minutes with candidate kernels interleaved, and the spread (IQR over median)
of op throughput was taken over 20-second windows.  This kernel gave
3.4-4.7%, against 14.5-22.5% unscaled.  A 1 MiB sort gave 7-9%, and a
closure-call loop 5.6-7.9%.  The kernel is the benchmark's own code, so a
change to the program cannot move it.  Raw latencies are reported alongside
in the diagnostics.

The median set-up probe is scaled the same way, by kernel samples taken
before, between and after the probes.  Over 4 minutes of back-to-back
probes, the medians of 30-second windows ranged over 11.7% unscaled and
4.3% scaled.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

#: Nominal kernel time that normalised latencies refer to.
REFERENCE_S = 1.0e-3
INTERVAL_S = 0.2
#: Calibration samples on each side of an op that set its local speed.
WINDOW = 3

_DATA = np.linspace(0.0, 1.0, 8192)


def _kernel() -> float:
    s = 0.0
    for i in range(1, 2000):
        s += math.log(i) * math.exp(-i * 1e-4)
    return float(np.sort(np.sin(_DATA * s))[0])


def sample() -> float:
    """Median time of three kernel runs."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t)
    return sorted(times)[1]


def steady_sample(n: int = 15) -> float:
    """Median of ``n`` samples, about 50 ms of kernel time."""
    return statistics.median(sample() for _ in range(n))


def warm_up() -> None:
    """Warm caches and the allocator before the first sample that counts."""
    for _ in range(5):
        sample()


class Calibrator:
    """Calibration samples taken between ops, with the times they were taken."""

    def __init__(self):
        warm_up()
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.due = 0.0

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now >= self.due:
            self.kernel_s.append(sample())
            self.at.append(now)
            self.due = now + INTERVAL_S

    def scale(self, when: float) -> float:
        """REFERENCE_S over the median kernel time of the samples around ``when``."""
        j = bisect.bisect_left(self.at, when)
        near = self.kernel_s[max(0, j - WINDOW):j + WINDOW] or self.kernel_s
        return REFERENCE_S / statistics.median(near)
