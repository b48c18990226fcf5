"""Host-speed sampler: short calibration bursts interleaved with the timed work.

On a shared host the same pass can run 1.5x slower for tens of seconds at a
time, and every pure-Python workload slows by the same factor.  `Sampler`
arms a 50 ms interval timer; on each tick the SIGALRM handler runs one burst
of fixed pure-Python work (integers, bit operations, dict, set, tuples and
Fractions) and records when it ran and how long it took.  The pass subtracts
the bursts from its own intervals and scales them by

    REFERENCE_BURST_S / mean duration of the bursts during the timed work,

which gives the interval in reference seconds: the time it would have taken
on a host where one burst takes `REFERENCE_BURST_S`.  A change to halfgraph
leaves the bursts alone, so the scale cancels the host and keeps the program.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
REFERENCE_BURST_S = 0.004  # about one burst's duration on the host the benchmark was written on


def burst() -> int:
    """Fixed work, about 4 ms of CPython bytecode; the result keeps it from being idle."""
    acc, counts, seen, total = 0, {}, set(), Fraction(0)
    for i in range(3000):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 3 | (x << 5 & 0xFFFF)
        key = (i % 97, x % 13)
        counts[key] = counts.get(key, 0) + 1
        seen.add(x & 1023)
        if i % 20 == 0:
            total += Fraction(i % 7 + 1, i % 11 + 3)
    return acc + len(sorted(counts.items())) + len(seen) + total.numerator


class Sampler:
    """Runs `burst()` on every SIGALRM tick between `start()` and `stop()`."""

    def __init__(self):
        self.bursts: list[tuple[float, float]] = []  # (start, duration), perf_counter

    def _tick(self, signum, frame):
        begun = time.perf_counter()
        burst()
        self.bursts.append((begun, time.perf_counter() - begun))

    def start(self) -> None:
        burst()  # the first call is slow (cold caches, first Fraction use); keep it untimed
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, begin: float, end: float) -> float:
        """Seconds of bursts that started in [begin, end)."""
        return sum(d for s, d in self.bursts if begin <= s < end)

    def scale(self, begin: float, end: float) -> float:
        """Reference seconds per measured second, from the bursts that started in [begin, end)."""
        durations = [d for s, d in self.bursts if begin <= s < end]
        if not durations:
            self._tick(signal.SIGALRM, None)
            durations = [self.bursts[-1][1]]
        return REFERENCE_BURST_S * len(durations) / sum(durations)
