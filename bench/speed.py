"""Host-speed normalisation of measured times.

On a shared host the speed of a core drifts by a third or more within
seconds, and by half between runs minutes apart, from co-tenant load. Every
time the benchmark reports is therefore converted to reference speed. A
`Speedometer` runs a fixed pure-Python loop (`LOOP_REPEATS` sums of 29
`fractions.Fraction` terms, about 0.25 ms) from a `SIGALRM` timer every
`PERIOD` seconds for as long as it is running. An interval measured at wall
time `dt` is reported as `dt * REF_LOOP_S / m`, where `m` is the median loop
time over the interval widened by `WINDOW` on either side, or over the five
nearest samples on either side when the interval holds fewer than five.
A reported time is thus the wall time the interval would have taken at the
host speed at which the loop takes `REF_LOOP_S`, a fixed constant.

The loop does what the program's Q(X) layer does most: it creates small
objects, takes gcds of machine-size integers and dispatches Python methods.
On the 2-vCPU x86-64 VM the benchmark was defined on it tracked the
program's speed better than a loop of 428-bit integer products, a
small-integer loop or a strided walk over a large list. Over 8-10 seeds the
spread (IQR over median) of job_s.p50 was 0.077 on long_words and 0.058 on
exact_checks with it, 0.110 and 0.118 with the big-integer loop, and 0.141
and 0.277 for raw wall time.

The loop and the constants belong to the benchmark, not the program, so a
change to the program moves the normalised time exactly as it moves the wall
time at a fixed host speed. The ticks cost about 1.5 % of every interval,
the same on every commit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

LOOP_REPEATS = 2
REF_LOOP_S = 0.25e-3
PERIOD = 0.02
WINDOW = 0.05


def loop_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(LOOP_REPEATS):
        total = Fraction(0)
        for i in range(1, 30):
            total += Fraction(i, i + 1)
    return time.perf_counter() - t0


class Speedometer:
    """Samples the loop's time in the background of the calling (main) thread."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at each sample
        self.loop_s: list[float] = []
        self._saved = None

    def _tick(self, signum, frame):
        self.at.append(time.perf_counter())
        self.loop_s.append(loop_seconds())

    def start(self):
        self._tick(None, None)
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._saved is not None:
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None
        self._tick(None, None)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def loop_median(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.at, t0 - WINDOW)
        hi = bisect.bisect_right(self.at, t1 + WINDOW)
        if hi - lo < 5:  # too few samples near the interval: use the nearest ones
            lo, hi = max(0, lo - 5), min(len(self.at), hi + 5)
        return statistics.median(self.loop_s[lo:hi])

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds at reference speed for the interval [t0, t1] of perf_counter."""
        return (t1 - t0) * REF_LOOP_S / self.loop_median(t0, t1)
