"""Host-speed correction for times measured on a shared, noisy machine.

On the reference machine (2 vCPU Intel Xeon) the same work runs up to 1.8x
slower for seconds at a time, and CPU time slows exactly like wall time, so
neither clock can separate a slow host from a slow program.  A fixed
reference kernel of small numpy/scipy calls -- the kind the solver is made
of, but no library code, so a library change cannot move it -- is therefore
timed between items every ``CADENCE_S`` seconds.  A time interval is rescaled
by ``NOMINAL_MS / reference_ms``, the reference taken as the mean of the two
samples around the interval: the result is the time the interval would have
taken on the quiet reference machine.  Sample time is excluded from every
interval.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
import scipy.linalg

# the reference kernel's time on the quiet reference machine
NOMINAL_MS = 1.3
CADENCE_S = 0.25

_M = np.eye(12) * 12.0 + np.arange(144.0).reshape(12, 12) % 7 / 7.0
_M = _M @ _M.T
_G = np.ones(12)


def reference_ms() -> float:
    t0 = time.perf_counter()
    for i in range(60):
        float(np.linalg.norm(_M[i % 12]))
        scipy.linalg.cho_solve(scipy.linalg.cho_factor(_M), _G)
    return 1e3 * (time.perf_counter() - t0)


class HostSpeed:
    """Reference samples interleaved with the measured work."""

    def __init__(self):
        self.starts, self.ends, self.ms = [], [], []

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        self.ms.append(reference_ms())
        self.ends.append(time.perf_counter())

    def tick(self) -> None:
        """Take a sample if the last one is ``CADENCE_S`` old (call between items)."""
        if time.perf_counter() - self.ends[-1] >= CADENCE_S:
            self.sample()

    def scaled(self, t0: float, t1: float, rescale: bool = True) -> float:
        """Duration of [t0, t1] at reference speed (as measured with
        ``rescale=False``), sample time left out.

        Samples are taken only between items and rounds, so every bound lies
        in a gap between two samples; [t0, t1] is cut at the samples inside
        it and each piece is scaled by the reference around its gap.
        """
        total = 0.0
        k = bisect.bisect_right(self.ends, t0) - 1       # sample before t0
        start = t0
        while True:
            gap_end = self.starts[k + 1] if k + 1 < len(self.starts) else None
            end = t1 if gap_end is None or t1 <= gap_end else gap_end
            around = (self.ms[k] + self.ms[min(k + 1, len(self.ms) - 1)]) / 2.0
            total += (end - start) * (NOMINAL_MS / around if rescale else 1.0)
            if end == t1:
                return total
            k += 1
            start = self.ends[k]
