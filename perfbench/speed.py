"""Machine-speed reference for the benchmark's speed-corrected times.

On a shared host the same pure-Python work can take up to twice as long
from one minute to the next, because neighbours contend for the cores.
The benchmark therefore times a fixed Fraction loop next to the work and
scales each measured time by NOMINAL_S / (loop time): the result is the
time the work would take where the loop takes NOMINAL_S.  Raw seconds are
reported beside the corrected ones.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: reference-loop time that defines the reference speed
NOMINAL_S = 0.025
STEPS = 8000
#: how often the loop also runs inside a long timed call
PERIOD_S = 0.5


def reference_seconds() -> float:
    """Time one fixed loop of Fraction additions (about NOMINAL_S)."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, STEPS):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
    return perf_counter() - start


def corrected(seconds: float, *loop_times: float) -> float:
    """``seconds`` at the reference speed, from loop times taken around it."""
    return seconds * NOMINAL_S / statistics.fmean(loop_times)


class Meter:
    """Times calls in raw seconds and in seconds at the reference speed.

    The loop runs before and after every call.  With ``inside`` it also runs
    from a SIGALRM timer every PERIOD_S during the call, so a call lasting
    many seconds is corrected by the speed the machine had while it ran;
    the loop's own time is taken out of the call's time.
    """

    def __init__(self):
        self.loop_times = [reference_seconds()]
        self._inside: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self._inside.append(reference_seconds())
        self._spent += perf_counter() - start

    def time(self, fn, inside: bool = True) -> tuple[float, float]:
        """Run ``fn()``; return (raw seconds, corrected seconds)."""
        self._inside, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick) if inside else None
        if inside:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            fn()
        finally:
            elapsed = perf_counter() - start
            if inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        seconds = elapsed - self._spent
        before = self.loop_times[-1]
        self.loop_times += self._inside
        self.loop_times.append(reference_seconds())
        return seconds, corrected(seconds, before, self.loop_times[-1], *self._inside)
