"""Host speed, so that times can be reported in reference seconds.

The host's speed drifts by about 25% within seconds, far more than the
benchmark's bounds allow.  `slowdown()` times two fixed loops (integers and
fractions, the arithmetic lcgspec spends its time in) against their times on
the seed machine when idle.  While a pass runs, `SpeedProbe` samples it from a
SIGALRM handler every PROBE_EVERY_S; a query's reference time is its measured
time, less the probe's own, divided by the mean slowdown sampled during and
next to it.  The loops never touch lcgspec, so a change in the package shows
in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_EVERY_S = 0.05
PROBE_REF_S = (0.0016, 0.00085)  # the two loops on the seed machine, idle


def _int_loop() -> None:
    x = 0
    for _ in range(10_000):
        x = (x * 69069 + 1) & 0xFFFFFFFF


def _fraction_loop() -> None:
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i * 7919 % 1009, i)


def slowdown() -> float:
    """Host slowdown against the seed machine idle: 1.0 there, 1.25 when
    everything takes a quarter longer."""
    ratios = []
    for loop, ref in zip((_int_loop, _fraction_loop), PROBE_REF_S):
        t0 = perf_counter()
        loop()
        ratios.append((perf_counter() - t0) / ref)
    return statistics.fmean(ratios)


class SpeedProbe:
    """Samples `slowdown()` from a timer signal while active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.slowdowns: list[float] = []
        self.costs: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.slowdowns.append(slowdown())
        self.starts.append(t0)
        self.costs.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def reference_seconds(self, start: float, end: float) -> float:
        """Time spent in [start, end] less the probe's, at the seed machine's speed."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        spent = end - start - sum(self.costs[i:j])
        return spent / statistics.fmean(self.slowdowns[max(i - 1, 0):j + 1])
