"""Machine-speed calibration: report times in reference seconds.

The benchmark's home is a small virtual machine shared with other tenants.
Its CPU speed changes by up to 2x, on time scales from under a second to
minutes, on both virtual CPUs at once.  Raw wall-clock medians of the same
run then differ by 25-40 % from one run to the next, which no gate can tell
from a regression.

So every timed interval is bracketed by two samples of a fixed pure-Python
loop that allocates and sorts 50 000 tuples and folds them into a dict: a
working set of a few megabytes, like the interpreter heap of the
design-space exploration.  (A loop small enough to stay in the first-level
cache tracked the slowdowns worse.)  An interval's wall clock is
multiplied by ``REFERENCE_S / c``, where ``c`` is the mean of the two
samples around it (the median of all samples taken between jobs, on the
server workload).  The result reads in *reference seconds*: the wall clock
the interval would take on a machine where the loop takes ``REFERENCE_S``,
the fast mode of the machine the benchmark was written on.  Both sides of a
comparison are scaled the same way, and the program under test never runs
the loop, so a change to the program cannot move the scale.  Raw wall
clocks are printed beside the scaled figures.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Sequence

#: Calibration loop time at the reference speed, in seconds.
REFERENCE_S = 0.04

#: Timings per sample; the fastest is kept, dropping one-off preemptions.
_TIMINGS = 2


def _loop() -> int:
    records = [(index * 7919 % 100003, float(index)) for index in range(50000)]
    table: dict = {}
    for key, value in records:
        table[key] = table.get(key, 0.0) + value
    records.sort()
    return len(table)


def sample() -> float:
    """Seconds one calibration loop takes on the machine right now."""
    best = float("inf")
    for _ in range(_TIMINGS):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best


def scale(samples: Sequence[float]) -> float:
    """Factor from wall-clock to reference seconds, given samples around it."""
    return REFERENCE_S / statistics.median(samples)
