"""Host-speed index: a fixed reference kernel timed between solves.

The machines this benchmark runs on are shared, and their speed drifts by
10-40% between runs that are a minute apart, and between fast and slow
spells that last from a fraction of a second to tens of seconds within a
run.  Solve times track that drift, so a run also times a fixed kernel of
the kinds of work the solver does (Fraction arithmetic, complex arithmetic in
dicts, a small numpy array expression) every REF_EVERY_S, and each solve or
cold call is scaled by REF_NOMINAL_S / (median kernel time of the samples
within LOCAL_S of it).  The kernel does not touch the solver, so a change to
the solver moves only the solve times, while a slow host moves both and
cancels.  The median factors of each run are printed with its raw values.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

import numpy as np

# Mean kernel time on the reference host: a 2-vCPU Intel Xeon VM at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6.  Adjusted values read as times on that host.
REF_NOMINAL_S = 5.0e-4
REF_EVERY_S = 0.025
# Samples within this many seconds of a timed interval set its factor; where
# there are fewer than LOCAL_MIN (a slow solve), the nearest ones do.
LOCAL_S = 0.25
LOCAL_MIN = 3

_POINTS = np.exp(1j * np.linspace(0.0, 6.0, 2000)) * 0.9


def reference_kernel():
    re, im = Fraction(5, 7), Fraction(-2, 9)
    s = Fraction(0)
    for i in range(1, 13):
        re, im = re * Fraction(5, 7) - im * Fraction(-2, 9), re * Fraction(-2, 9) + im * Fraction(5, 7)
        s += re * Fraction(3, i + 1) - im
    d: dict = {}
    z = 0.3 + 0.4j
    for i in range(200):
        key = (i % 13, i % 7)
        d[key] = d.get(key, 0) + z ** (i % 9) * 1.5
    out = np.zeros(_POINTS.shape, dtype=complex)
    p = _POINTS
    for _ in range(15):
        p = p * _POINTS
        out += (0.5 - 0.25j) * p
    return s, d, out


class HostSpeed:
    """Kernel timings taken at a steady cadence while the benchmark works."""

    def __init__(self):
        self.times: list = []
        self.stamps: list = []  # end of each sample, ascending
        self._last = perf_counter()

    def sample(self) -> None:
        t0 = perf_counter()
        reference_kernel()
        self._last = perf_counter()
        self.times.append(self._last - t0)
        self.stamps.append(self._last)

    def tick(self) -> None:
        """Take a sample if REF_EVERY_S has passed since the last one."""
        if perf_counter() - self._last >= REF_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Factor that turns a time measured from t0 to t1 into reference-host time."""
        lo = bisect_left(self.stamps, t0 - LOCAL_S)
        hi = bisect_right(self.stamps, t1 + LOCAL_S)
        if hi - lo < LOCAL_MIN:
            mid = bisect_left(self.stamps, (t0 + t1) / 2)
            lo, hi = max(0, mid - LOCAL_MIN), mid + LOCAL_MIN
        return REF_NOMINAL_S / statistics.median(self.times[lo:hi])
