"""Machine speed, to scale the end-to-end timings to one reference speed.

On a shared host the CPU speed a process gets drifts by 10-40% over
minutes, and the same work can take 30% longer from one run to the next.
So a run times a fixed reference loop, which calls no kdual code, between
its timed samples.  Each sample is scaled by NOMINAL_S over the reference's
time around it: a scaled time is what the sample would have taken on a
machine where the reference loop takes NOMINAL_S.  A change to kdual does
not touch the reference, so it shows in the scaled times in full.
"""

from __future__ import annotations

import time

# Seconds the reference loop takes at the reference speed: about its time
# on a quiet 2-vCPU x86-64 VM under CPython 3.
NOMINAL_S = 0.004
REPEATS = 3  # the fastest of these is the reference time; a preempted one is slower


def _reference():
    """Interpreter loop, dicts keyed by small tuples and big-integer
    products: the kinds of work kdual does."""
    table = {}
    for i in range(2000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * i
    big = 3 ** 2000
    acc = 1
    for i in range(150):
        acc = (acc * big + i) % (big + 7)
    return len(table), acc


def reference_seconds():
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """Times the reference at each call of `mark` and `factor`.  The factor
    for the work done since the previous call uses the mean of the two
    reference times."""

    def __init__(self):
        self.factors = []
        self.mark()

    def mark(self):
        """Start a timed sample."""
        self.last = reference_seconds()
        self.at = time.perf_counter()

    def factor(self):
        """End a timed sample, and start the next: its scale factor."""
        now = reference_seconds()
        scale = 2 * NOMINAL_S / (self.last + now)
        self.last = now
        self.at = time.perf_counter()
        self.factors.append(scale)
        return scale
