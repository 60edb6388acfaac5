"""The host's pace, read from a fixed reference routine next to every op.

The machine the benchmark runs on is shared, and its speed drifts: over
minutes the same code runs up to twice as slow, and the drift is in CPU time
as well as wall time. A time measured alone therefore says as much about the
neighbours as about finfree. The worker runs `reference()` when its set-up
ends, before the first op and after every op, and run.py scales each
measured time by
`REFERENCE_S / (time the reference took next to it)`. A figure then reads as
the time the op would take on a host on which the reference takes
REFERENCE_S; the drift cancels, and a change in finfree does not, because
the reference calls nothing of it.

The routine is pure Python, like most of what finfree runs: exact rational
and big integer arithmetic, and dict work in the interpreter. It imports no
extension module and keeps a few kilobytes, so it adds nothing to the peak
memory of the process it runs in.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About what one reference() call took, as the median of 300 samples, on
# the 2-vCPU machine of the README's reference figures.
REFERENCE_S = 0.0025
# Repeats per sample; a sample is their median, so one interrupted repeat
# does not move it.
REPEATS = 3


def reference():
    """Fixed work that touches nothing of finfree."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 17 - 8, i) * Fraction(i % 5 + 1, 3)
    table = {}
    for i in range(7000):
        key = i & 511
        table[key] = table.get(key, 0) + (i * i) ** 3
    return total, len(table)


def sample() -> float:
    """Seconds of one reference() call: the median of REPEATS, with the
    cyclic garbage collector off so that it never runs over objects that
    finfree left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            reference()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(seconds: float, pace_s: float) -> float:
    """A measured time at reference pace, given the reference's time next to it."""
    return seconds * REFERENCE_S / pace_s
