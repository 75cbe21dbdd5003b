"""A meter that tracks how fast the host runs, moment by moment.

On a shared host the same code runs at one of two speeds, about 1.7x
apart, and flips between them every fraction of a second to every few
seconds, so a pass of a few seconds nearly always mixes both.  While a
:class:`Meter` is on, a timer signal interrupts the run every
``INTERVAL_S`` and times a fixed reference kernel (a *tick*).  Every
interval of the run is then scaled by ``NOMINAL_S`` over the kernel time
around it, which reports it at one nominal host speed, and the ticks' own
time is left out.

The kernel is plain standard-library Python doing the kind of work the
library does most: a generator scan of small objects whose Python
``__contains__`` tests a frozenset, ``Fraction`` sums with power-of-two
denominators, and plain function calls.  It calls no structlab code, so a
change to the library moves the scaled times and never the scale.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from fractions import Fraction

#: About one kernel run's time on the host of ``baseline.json`` (2-core
#: Intel Xeon, Python 3.11) at its faster speed; it only sets the scale, and
#: scaled times are seconds at that speed.
NOMINAL_S = 0.0005

#: Time from the end of one tick to the start of the next.
INTERVAL_S = 0.02


class _Set:
    __slots__ = ("members",)

    def __init__(self, members):
        self.members = members

    def __contains__(self, x) -> bool:
        return isinstance(x, int) and x in self.members


class _Entry:
    __slots__ = ("set", "key")

    def __init__(self, members, key):
        self.set, self.key = _Set(members), key


def _entries(count: int) -> list[_Entry]:
    rng = random.Random(0)
    return [_Entry(frozenset(rng.sample(range(4096), 3)), i) for i in range(count)]


_ENTRIES = _entries(600)


def _half(a: Fraction, j: int) -> Fraction:
    return a + Fraction(1, 1 << (j % 24))


def kernel() -> int:
    found = 0
    for v in (5, 901, 2222):
        found += len(tuple(e.key for e in _ENTRIES if v in e.set))
    total = Fraction(0)
    for j in range(120):
        total = _half(total, j)
    return found + total.denominator


class Meter:
    """Ticks on ``SIGALRM`` while on; then puts times of the run on a nominal clock.

    Use it as a context manager around everything to be scaled, and read the
    clock once it has stopped.  Each tick is ``(start, end)`` from
    ``time.perf_counter``.  The stretch between two ticks runs at
    ``NOMINAL_S`` over the slower of the two kernel times, so a stretch in
    which the host changes speed is never scaled up past the speed it ran at;
    the ticks themselves take no time on the clock.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []
        self._on = False
        self._previous = None

    def _tick(self, *_) -> None:
        start = time.perf_counter()
        kernel()
        self.ticks.append((start, time.perf_counter()))
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "Meter":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._on = False  # a tick already pending must not re-arm the timer
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        self.stopped()

    def stopped(self) -> None:
        """Index the ticks for :meth:`clock` (done on leaving the context)."""
        pairs = list(zip(self.ticks, self.ticks[1:]))
        self._ends = [end for _, end in self.ticks]
        self._rates = [NOMINAL_S / max(a1 - a0, b1 - b0) for (a0, a1), (b0, b1) in pairs]
        self._at = {True: [0.0], False: [0.0]}  # clock at the end of each tick
        for ((_, lo), (hi, _)), rate in zip(pairs, self._rates):
            self._at[True].append(self._at[True][-1] + (hi - lo) * rate)
            self._at[False].append(self._at[False][-1] + (hi - lo))

    def clock(self, t: float, scaled: bool = True) -> float:
        """Seconds from the first tick to ``t``, less the ticks: nominal
        seconds, or as measured when ``scaled`` is false."""
        i = min(max(bisect.bisect_right(self._ends, t) - 1, 0), len(self._rates) - 1)
        lo, hi = self.ticks[i][1], self.ticks[i + 1][0]
        run = min(max(t - lo, 0.0), hi - lo)
        return self._at[scaled][i] + run * (self._rates[i] if scaled else 1.0)

    def seconds(self, start: float, end: float, scaled: bool = True) -> float:
        return self.clock(end, scaled) - self.clock(start, scaled)
