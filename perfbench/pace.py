"""Host-speed normalisation of the benchmark's timings.

The machines this benchmark runs on are shared virtual ones whose speed
moves by up to 1.9x for stretches of seconds to minutes, so two runs of
the same code can differ by more than any regression worth catching.
:class:`Pacer` removes that drift: while a pass runs, a timer signal
every ``INTERVAL`` seconds runs a fixed pure-Python probe (:func:`probe`)
in the main thread, between two bytecodes of whatever the attack is doing,
and records how long it took.  The probe does the same work every time,
so its duration tracks the speed of the host at that moment.  It runs
twice and only the second run is timed: the first brings its data back
into the caches, so that what the attack left there does not count.

Timings are taken on :meth:`Pacer.clock`, which stops while a probe runs,
and :meth:`Pacer.scaled` converts an interval of that clock into seconds
at the reference speed: the interval times ``REF_S`` over the probe time
around it (the mean of the inverse, so a unit that spans a slow and a
fast stretch is scaled piece by piece).  Scaled times are the times the
work would take on a host where one probe takes ``REF_S``; on the machine
in ``NOTES.md`` a probe took 0.21-0.26 ms in its fast stretches and
0.33-0.38 ms in its slow ones.

The probe is a mix of the attack's kinds of work: a watch-list scan over a
fixed 3-SAT clause set and a wide-integer gate evaluation.  On the machine
in ``NOTES.md`` both slowed in step with the attacks, where a dictionary
counting loop slowed more.  The probe is frozen here, outside ``src/``, so
that no change to the program changes it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

INTERVAL = 0.025  # seconds between probes
REF_S = 0.25e-3  # probe seconds at the reference speed

_rng = random.Random(20171028)
_NV = 300
_CLAUSES = [[_rng.randrange(2, 2 * _NV + 2) for _ in range(3)] for _ in range(1300)]
_WATCH: list[list[list[int]]] = [[] for _ in range(2 * _NV + 2)]
for _c in _CLAUSES:
    _WATCH[_c[0]].append(_c)
    _WATCH[_c[1]].append(_c)
_ORDER = [_rng.randrange(2, 2 * _NV + 2) for _ in range(220)]
_GATES = [(_rng.randrange(48), _rng.randrange(48), _rng.randrange(3)) for _ in range(160)]
_MASK = (1 << 256) - 1
_WIRES = [(i * 0x9E3779B97F4A7C15) & _MASK for i in range(48)]


def probe() -> int:
    """Fixed work of about 0.2 ms; the result only keeps it honest."""
    val = [0] * (2 * _NV + 2)
    units = 0
    for lit in _ORDER:
        if val[lit]:
            continue
        val[lit] = 1
        val[lit ^ 1] = 2
        for c in _WATCH[lit ^ 1]:
            if val[c[0]] == 1 or val[c[1]] == 1 or val[c[2]] == 1:
                continue
            for other in c:
                if val[other] == 0:
                    units += 1
                    break
    wires = list(_WIRES)
    for _ in range(4):
        for a, b, op in _GATES:
            x, y = wires[a], wires[b]
            wires[a] = x & y if op == 0 else (x | y) ^ _MASK if op == 1 else x ^ y
    return units + (wires[0] & 1)


def probe_seconds(n: int) -> float:
    """Median time of `n` probes run back to back."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Pacer:
    """A clock that stops during probes, and the probes taken while it ran."""

    def __init__(self):
        self.paused = 0.0  # seconds spent in probes so far
        self.at: list[float] = []  # clock reading of each probe
        self.took: list[float] = []  # seconds each probe took

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _probe(self, *_) -> None:
        t0 = time.perf_counter()
        probe()  # brings the probe's data back into the caches the attack used
        t1 = time.perf_counter()
        probe()
        t2 = time.perf_counter()
        self.at.append(t0 - self.paused)
        self.took.append(t2 - t1)
        self.paused += t2 - t0

    @contextmanager
    def running(self):
        """Probe every INTERVAL seconds inside the block, and once at each end."""
        self._probe()
        old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self._probe()

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed for the clock interval [start, end]:
        the probes from the last one before it to the first one after it,
        each first replaced by the median of itself and its neighbours so
        that one disturbed probe does not count."""
        lo = max(0, bisect_right(self.at, start) - 1)
        hi = min(len(self.at), bisect_left(self.at, end) + 1)
        took = self.took
        inv = [1.0 / statistics.median(took[max(0, i - 1):i + 2]) for i in range(lo, hi)]
        return (end - start) * REF_S * sum(inv) / len(inv)
