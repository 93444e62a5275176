"""Machine-speed calibration for timings taken on a shared, noisy host.

On a small shared VM the same computation can take 25% longer from one
second to the next and twice as long from one quarter hour to the next,
because other tenants load the host. A fixed reference kernel, timed right
before and right after each timed interval (an op, or a set-up probe),
measures that slowdown: an interval's calibrated time is its wall time
divided by the mean reference time around it and multiplied by the
reference's nominal time. Calibrated times are what the same work would take
with the host at its nominal speed; raw wall times stay in the run record.

The kernel mixes what the workloads spend time on: interpreter bytecode,
many small numpy calls, a small BLAS product and a pass over an array larger
than the L2 cache. Small numpy calls slow down most under load; with about a
third of the kernel's time in them, the workloads' times over minutes of
changing load grow about as the kernel's does (log-log slopes 0.89-1.13 in
a 7-minute measurement on the 2-core VM), where a tenth gave 1.13-1.51 and
under-corrected.
"""

from __future__ import annotations

import time

import numpy as np

# Time of one reference kernel run with the host at its nominal (unloaded)
# speed, measured on the 2-core x86-64 VM the benchmark was defined on.
REFERENCE_NOMINAL_S = 0.005

_MATRIX = np.linspace(0.0, 1.0, 40_000).reshape(200, 200)
_LARGE = np.linspace(0.0, 1.0, 1 << 20)  # 8 MB


def _kernel() -> float:
    total = 0
    for i in range(20_000):
        total += i * i
    small = np.arange(64.0)
    for _ in range(1200):
        small = np.sqrt(small + 1.0)
    product = _MATRIX
    for _ in range(3):
        product = (product @ _MATRIX) * 1e-3
    return total + float(small[0] + product[0, 0] + _LARGE.sum())


def reference_s() -> float:
    """Fastest of two timed runs of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Calibrator:
    """Reference timings taken between consecutive timed intervals."""

    def __init__(self):
        self._last = reference_s()

    def slowdown(self) -> float:
        """Host slowdown over the interval since the previous reference timing.

        Times the reference kernel again, so call it right after the interval.
        """
        now = reference_s()
        factor = (self._last + now) / (2.0 * REFERENCE_NOMINAL_S)
        self._last = now
        return factor
