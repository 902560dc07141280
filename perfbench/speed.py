"""Machine-speed probe: a fixed piece of work timed every few milliseconds.

The reference box is shared: its CPU alternates between full speed and
spells 1.5-1.9x slower that last from a tenth of a second to minutes,
with no steal time reported, and CPU time slows down with wall time.
Run-to-run spreads of 20-40% follow.  The probe runs ``unit()`` from a
SIGALRM handler every ``PERIOD_S`` during a pass; an operation's time is
then its wall time without the probe's own time, scaled by
``REF_UNIT_S`` over the mean CPU time of the unit during the operation
(see ``unit_cpu_s``), which reads as seconds at the box's full speed.
The scaling cancels a slow spell because it slows the unit and the
operation alike; the mean, not the median, because a spell covering
part of an operation slows it in proportion.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025
# CPU time of unit() at full speed on the 2-core reference box (Xeon,
# Python 3.11.7)
REF_UNIT_S = 0.00065


def unit():
    """Fixed pure-Python work: Fraction arithmetic and tuple-keyed dicts,
    the mix the verifiers spend their time in."""
    x = Fraction(0)
    for i in range(1, 120):
        x += Fraction(1, i % 7 + 1)
    d: dict = {}
    for i in range(1500):
        k = (i % 61, i % 7)
        d[k] = d.get(k, 0) + i
    return x


def unit_cpu_s() -> float:
    """CPU seconds of one ``unit()`` on this thread.  A slow spell of the
    host slows CPU time too, while time the thread waits for a core (say,
    behind worker processes of the program) does not count, so the probe
    never mistakes the program's own parallel work for a slow machine."""
    c0 = time.thread_time()
    unit()
    return time.thread_time() - c0


class Probe:
    """Samples ``unit()`` while running: its start and wall time, which
    are taken out of the operations' times, and its CPU time."""

    def __init__(self):
        self.starts: list[float] = []
        self.walls: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.durations.append(unit_cpu_s())
        self.starts.append(t0)
        self.walls.append(time.perf_counter() - t0)

    def __enter__(self) -> "Probe":
        self._sample(None, None)
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(None, None)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds at reference speed for the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.walls[lo:hi])
        # samples within the interval, widened to at least one each side
        near = self.durations[max(lo - 1, 0):hi + 1]
        return (t1 - t0 - inside) * REF_UNIT_S / statistics.fmean(near)
