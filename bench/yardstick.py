"""A fixed piece of exact arithmetic that measures how fast the machine runs
right now.

Other tenants of a shared host can slow this process by up to 2x for
stretches of seconds to minutes.  ``Speedometer`` runs the yardstick before
an op, every ``period`` seconds during it (from a SIGALRM handler, in this
thread, so nothing runs beside the op) and after it.  It scales the op's time,
minus the yardstick's own time, by ``REFERENCE_S`` over the mean yardstick
time, which turns it into seconds at a fixed reference speed.  The yardstick
is Gauss-Jordan elimination over ``Fraction`` written here, not imported from
superlie, so a change to the library never changes the yardstick.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

# yardstick time on an uncontended 2.1 GHz Xeon vCPU, Python 3.11
REFERENCE_S = 0.0085

_rng = random.Random(1)
_MATRIX = [[Fraction(_rng.randint(-3, 3), _rng.choice((1, 1, 2))) for _ in range(12)]
           for _ in range(12)]


def _eliminate(rows):
    m = [r[:] for r in rows]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [inv * x for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m


def measure() -> float:
    """Seconds for two eliminations of the fixed matrix."""
    start = time.perf_counter()
    _eliminate(_MATRIX)
    _eliminate(_MATRIX)
    return time.perf_counter() - start


class Speedometer:
    """Times calls in reference seconds.  A sampling Speedometer installs a
    SIGALRM handler and leaves it in place, so a late timer signal never meets
    the default action.  Time with one sampling Speedometer at a time, from
    the main thread."""

    def __init__(self, period: float | None = 0.1):
        self.period = period          # None: sample only before and after
        self._samples: list[float] | None = None
        self._spent = 0.0
        self.samples: list[float] = []  # the last call's samples, before to after
        self.yardstick_s = 0.0          # the time those samples took
        if period is not None:
            signal.signal(signal.SIGALRM, self._tick)
        self._last = measure()

    def _tick(self, signum, frame):
        samples = self._samples
        if samples is None:
            return
        start = time.perf_counter()
        samples.append(measure())
        self._spent += time.perf_counter() - start
        # one-shot timer, re-armed after the sample, so samples never overlap
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def time(self, fn):
        """(fn(), seconds, reference seconds).  The yardstick's own time
        during the call is not counted."""
        samples = [self._last]
        self._spent = 0.0
        self._samples = samples
        start = time.perf_counter()
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, self.period)
        try:
            result = fn()
        finally:
            self._samples = None
            elapsed = time.perf_counter() - start
            if self.period is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = elapsed - self._spent
        self._last = measure()
        samples.append(self._last)
        self.samples = samples
        self.yardstick_s = samples[0] + self._spent + samples[-1]
        return result, seconds, seconds * REFERENCE_S / statistics.mean(samples)
