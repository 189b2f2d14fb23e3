"""Machine-speed probe that puts every reported time on one scale.

On a shared virtual machine the same operation can run 30-40% slower or
faster from one few-second stretch to the next, because the host's other
tenants slow this one.  A fixed probe kernel, independent of qbrach and made
of the same kind of work (interpreted Python plus small complex NumPy
products), is timed right after each measured interval, as many times as
keeps its share of the run near SHARE.  Each interval is multiplied by
REFERENCE_S over the mean probe time around it (the probes just before and
just after): it reads as it would on a machine where the probe takes
REFERENCE_S.  Raw times are kept in the run's record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the probe's median on the 2-core machine the benchmark was defined on
REFERENCE_S = 6.0e-3
SHARE = 0.10

_EYE = np.eye(4, dtype=complex)
_MIX = np.full((4, 4), 0.25 + 0.25j)


def _kernel():
    s = 0
    for i in range(40000):
        s += i * i
    x = _EYE
    for _ in range(700):
        x = (x @ _MIX) * 0.5 + _EYE
    return s, x


class Probe:
    """Probe times collected through one run."""

    def __init__(self):
        self.times: list = []
        self._last = None

    def after(self, busy_s: float) -> float:
        """Probe right after an interval of busy_s seconds; return the factor
        that puts the interval at the reference speed."""
        now = []
        for _ in range(max(1, round(SHARE * busy_s / REFERENCE_S))):
            t0 = time.perf_counter()
            _kernel()
            now.append(time.perf_counter() - t0)
        self.times.extend(now)
        after = statistics.mean(now)
        before = after if self._last is None else self._last
        self._last = after
        return 2.0 * REFERENCE_S / (before + after)
