"""A speed probe that runs inside a pass, to take the host's speed out of its times.

A small shared machine changes speed by a factor of two in phases of a few
seconds to many minutes, and the guest sees none of it in its load average or
its steal time.  Neither vCPU tells how fast the other one runs, so the probe
runs in the timed process itself: an interval timer interrupts the pass every
``INTERVAL_S`` and the handler times a fixed piece of exact arithmetic, in the
style of the package (``Fraction`` products summed into a dict keyed by
exponent tuples) but using none of its code.

An interval of wall time that the probes saw run ``k`` times slower than
``NOMINAL_S`` counts ``1/k`` of its length.  So ``at_reference_speed`` turns
measured seconds into seconds at the reference speed, the speed at which one
probe takes ``NOMINAL_S``.  The probes' own time is taken out first.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# One probe's time at the reference speed, about its median on a 2-vCPU
# Xeon VM at 2.1 GHz.  A constant: it sets the scale, never the spread.
NOMINAL_S = 4e-4
# An interval with fewer probes inside is judged by its nearest probes.
MIN_PROBES = 6

_LEFT = [(i, 3 - i, Fraction(2 * i + 1, 7 + i)) for i in range(8)]
_RIGHT = [(j % 3, j, Fraction(5 - j, 3 + 2 * j)) for j in range(10)]


def probe_work() -> dict:
    """The fixed work of one probe: an 8-by-10 product of exact polynomials."""
    out = {}
    for a, b, x in _LEFT:
        for c, d, y in _RIGHT:
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return out


class Probe:
    """Times ``probe_work`` every ``INTERVAL_S`` of wall time while started.

    ``samples`` holds (start, seconds) pairs on the ``time.monotonic`` clock.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.monotonic()
        probe_work()
        seconds = time.monotonic() - start
        self.samples.append((start, seconds))
        self.spent += seconds

    def clock(self) -> float:
        """``time.monotonic()`` less the time spent in probes so far."""
        return time.monotonic() - self.spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def at_reference_speed(self, begin: float, end: float) -> tuple:
        """(seconds measured, seconds at the reference speed) of [begin, end].

        Both leave out the probes that ran inside the interval.  The speed is
        the mean of NOMINAL_S / probe time over the probes inside, or over the
        MIN_PROBES nearest ones when fewer ran inside.
        """
        inside = [s for s in self.samples if begin <= s[0] <= end]
        measured = end - begin - sum(seconds for _, seconds in inside)
        chosen = inside
        if len(chosen) < MIN_PROBES:
            def distance(sample):
                return max(begin - sample[0], sample[0] - end, 0.0)
            chosen = sorted(self.samples, key=distance)[:MIN_PROBES]
        if not chosen:
            raise RuntimeError("no speed probe ran")
        speed = sum(NOMINAL_S / seconds for _, seconds in chosen) / len(chosen)
        return measured, measured * speed
