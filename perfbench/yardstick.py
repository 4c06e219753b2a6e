"""A fixed pure-Python loop that measures how fast the host runs at the moment.

On a shared host the same code runs up to about 1.6 times slower while
neighbours are busy, in phases that last from seconds to minutes, so the
median wall time of one run moves by more than any bound worth setting.
The benchmark runs this loop next to every operation and every set-up
and scales their wall times by ``NOMINAL_S / yardstick time``: the
times it reports are those of a host running at one fixed speed. The
loop does not touch biasaudit, so no change to the program moves it.
"""

import time

# The loop's time on a quiet host (2-vCPU Intel Xeon, Python 3.11.7).
# Only the unit of the reported times depends on it, not their spread.
NOMINAL_S = 0.05


def yardstick() -> float:
    """Seconds the loop takes now."""
    t0 = time.perf_counter()
    for _ in range(3):
        counts: dict[int, int] = {}
        for i in range(80_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
    return time.perf_counter() - t0


def scaled(seconds: float, yard_s: float) -> float:
    """A wall time measured while the loop took ``yard_s``, at the nominal speed."""
    return seconds * NOMINAL_S / yard_s
