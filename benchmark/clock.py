"""Times blocks of work in seconds at a fixed reference speed.

The benchmark runs on a shared machine whose speed drifts: the same
pure-Python loop takes anywhere from 0.7x to 1.2x its usual time, in
spells of several seconds to a minute.  Process CPU time drifts with
it, so it is the processor, not the scheduler.  A wall-clock median over
a 30 s run lands wherever the spells of that run put it.

So every timed block is bracketed by a reference: a fixed Edmonds-Karp
solve from `corpus.py`, the same in every run and every commit, timed
just before and just after the block.  A block's reference seconds are
its wall-clock seconds times REF_SECONDS over the reference's mean time
around it.  On a steady machine where one reference solve takes
REF_SECONDS, the two agree.  No change to hierflow moves the reference,
so a change to the program moves the reference seconds as it moves the
wall clock, while a change of machine speed cancels out.
"""
from __future__ import annotations

import gc
import random
import statistics
import time

import corpus

# one reference solve, in seconds, at the nominal speed; about what it
# takes on the 2-CPU machine the benchmark was made on (Python 3.11)
REF_SECONDS = 0.00025
REF_SOLVES = 5  # per speed sample; the sample is their median


class Clock:
    """Times calls in wall-clock seconds and in reference seconds."""

    def __init__(self):
        self._n = 60
        self._arcs = corpus.out_regular_arcs(random.Random(0), self._n, 4, 50)
        self._last = self.sample()

    def sample(self) -> float:
        """Median seconds of one reference solve, right now.  Garbage
        collection is off meanwhile, so the program's heap does not
        decide what the reference costs."""
        reps = []
        gc.disable()
        try:
            for _ in range(REF_SOLVES):
                t0 = time.perf_counter()
                corpus.edmonds_karp(self._n, self._arcs, 0, self._n - 1)
                reps.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return statistics.median(reps)

    def timed(self, fn, *args):
        """(fn(*args), wall seconds, reference seconds).  An exception
        from fn is returned as the result, never raised."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # counted as an error by the caller, never fatal
            out = exc
        wall = time.perf_counter() - t0
        before, self._last = self._last, self.sample()
        return out, wall, wall * REF_SECONDS * 2 / (before + self._last)
