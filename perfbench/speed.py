"""The host's speed, sampled while the benchmark measures.

On a shared host other tenants change how fast this process runs, by up to
half, in stretches from milliseconds to minutes (a fixed pure-Python loop
shows it as plainly as monospec does).  A `Sampler` times a small fixed piece
of work, `probe`, from a SIGALRM handler every SAMPLE_S seconds while it is
on, so every stretch of a measurement comes with the speed the host gave it.
run.py scales each time by the probe times taken during it (see `scale`).

The probe is the benchmark's own code, in the style of monospec's hot loops
(a bitmask scan over subsets of a fixed table), and never calls monospec, so
a change to the package cannot change it.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

#: Seconds between two probes while a sampler is on.
SAMPLE_S = 0.01

#: Probe time that defines the reference speed: a scaled time is what the
#: measurement would read on a host that runs `probe` in this many seconds.
#: It is near what one core of the machine the benchmark was built on takes
#: when other tenants leave it alone.
REF_PROBE_S = 0.00016

#: The fixed table `probe` scans: the 10-element semilattice chain2 x chain5.
_TABLE = [[max(a // 5, b // 5) * 5 + max(a % 5, b % 5) for b in range(10)] for a in range(10)]
_ROWMASK = [sum(1 << v for v in set(row)) for row in _TABLE]


def probe() -> int:
    """The fixed work: for 32 subsets of _TABLE, the closure under
    multiplication by their members, and whether the complement is closed."""
    table, rowmask, n = _TABLE, _ROWMASK, len(_TABLE)
    found = []
    for mask in range(384, 448, 2):
        closure, rest = 0, mask
        while rest:
            low = rest & -rest
            closure |= rowmask[low.bit_length() - 1]
            rest ^= low
        comp = [x for x in range(n) if not (mask >> x) & 1]
        if closure and not any((mask >> table[a][b]) & 1 for i, a in enumerate(comp) for b in comp[i:]):
            found.append(frozenset(x for x in range(n) if (mask >> x) & 1))
    return len(found)


class Sampler:
    """Probe times, with when they were taken, from a SIGALRM handler.

    `spent` is the total time the handler took; a caller subtracts its growth
    over a measurement from the measurement.  Only the main thread of a
    process with no other use for SIGALRM may use one.
    """

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = perf_counter()
        probe()
        end = perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self.spent += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def around(self, start: float, end: float) -> float:
        """Mean probe time from one interval before `start` to one after
        `end`, widened until it holds a probe (a handler waits for a long
        call into C to return)."""
        margin = SAMPLE_S
        while True:
            took = self.took[bisect_left(self.at, start - margin):bisect_right(self.at, end + margin)]
            if took or margin > 60:
                return sum(took) / len(took) if took else float("nan")
            margin *= 2


def scale(seconds: float, probe_s: float) -> float:
    """`seconds` at the reference speed, given the mean probe time during it."""
    return seconds * REF_PROBE_S / probe_s
