"""Machine-speed probes, so that timings hold still on a shared machine.

The 2-core machine this benchmark was tuned on changes speed by up to 2.5x
within seconds, as other tenants start and stop work: a fixed pure-Python
loop took anywhere from 13 to 23 ms per block, with CPU time equal to wall
time. Raw wall times of one workload spread by up to 0.36 (quartile
distance over median) across ten seeds.

A probe runs ``reference()``, a fixed piece of pure-Python and small-NumPy
work that does not touch hgmeta, ``REPEATS`` times. It records when it
started, how long it took in all, and the median time of one reference run,
which an interrupt during one of them does not move. Probes run at the start
and end of every round, between repeated samples, and, while hgmeta works,
at wrapped call sites once ``PROBE_GAP_S`` has passed since the last probe.
A measured interval is then reported in reference seconds: its wall time,
less the probes that ran inside it, times ``REFERENCE_S`` over the reference
time of the probes inside it and next to it. In a 90 s test on this
machine, dividing a 10 ms eval by a longer version of this reference, timed
next to it, cut the coefficient of variation over 1 s blocks from 0.20 to
0.034.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

from spans import replace, restore

# median duration of reference() on the 2-core machine the reference
# figures were measured on (Python 3.11.7, NumPy 2.4.6)
REFERENCE_S = 0.0016
REPEATS = 3
PROBE_GAP_S = 0.5
NEIGHBOURS = 3

_rng = np.random.default_rng(0)
_SQUARE = _rng.standard_normal((64, 64))
_ROWS = _rng.standard_normal((300, 16))
_PICK = _rng.integers(0, 300, 400)
_SEGMENTS = np.array([0, 100, 200])


def reference() -> int:
    """Fixed interpreter and small-array work, the same on every call."""
    total = 0
    for i in range(4_000):
        total += i * i
    for _ in range(40):
        x = _SQUARE @ _SQUARE[:, :1]
        np.add.reduceat(_ROWS[_PICK], _SEGMENTS, axis=0)
        np.exp(x)
    return total


class Probes:
    """Timed reference runs, and wall intervals converted with them."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []  # whole probe, reference runs and all
        self.speeds: list[float] = []  # median time of one reference run
        self._undo: list = []

    def take(self) -> None:
        times = []
        start = perf_counter()
        for _ in range(REPEATS):
            began = perf_counter()
            reference()
            times.append(perf_counter() - began)
        self.starts.append(start)
        self.durations.append(perf_counter() - start)
        self.speeds.append(statistics.median(times))

    def due(self) -> None:
        """Probe when PROBE_GAP_S has passed since the last probe ended."""
        last = self.starts[-1] + self.durations[-1] if self.starts else -math.inf
        if perf_counter() - last >= PROBE_GAP_S:
            self.take()

    def attach(self, owner, attr: str) -> None:
        """Make every call of ``owner.attr`` probe first when one is due."""
        fn = getattr(owner, attr)

        def probed(*args, **kwargs):
            self.due()
            return fn(*args, **kwargs)

        self._undo += replace(owner, attr, probed)

    def detach(self) -> None:
        restore(self._undo)
        self._undo = []

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end] less its probes, at reference speed.

        With two or more probes inside, the interval's speed is the mean of
        those and the nearest probe on each side, since probes sample a long
        interval evenly. A shorter interval takes the median of the
        ``NEIGHBOURS`` nearest probes on each side (and any one inside): a
        single probe that ran in a quiet moment would otherwise set its
        speed alone. A round's forced probes make sure both sides have one.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.durations[lo:hi])
        if hi - lo >= 2:
            speed = statistics.fmean(self.speeds[max(lo - 1, 0) : hi + 1])
        else:
            speed = statistics.median(self.speeds[max(lo - NEIGHBOURS, 0) : hi + NEIGHBOURS])
        return (end - start - inside) * REFERENCE_S / speed

    def summary(self) -> dict:
        return {
            "probes": len(self.durations),
            "reference_median_s": statistics.median(self.speeds),
            "reference_s": REFERENCE_S,
        }
