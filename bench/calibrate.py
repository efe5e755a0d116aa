"""Machine-speed calibration for the end-to-end pass.

On a shared virtual machine the CPU time a fixed piece of Python takes
changes by tens of percent within a second (the host's other tenants
compete for the physical core and its caches), so raw CPU times of the
same code in two runs disagree by more than any useful regression bound.

While a ``Calibrator`` runs, a CPU-time interval timer interrupts the
workload every ``INTERVAL_S`` seconds of process CPU time and runs a fixed
reference block, ten to twenty milliseconds of interpreter work that shares
no code with the package.  Its time is a sample of how fast the machine is
at that moment.  The workload's own clock, ``now()``, leaves out the time
spent in reference blocks, and ``normalise`` rescales a workload interval
by the machine speed measured during it (and just around it), so a time
reads as what it would have been on the reference machine, where the
block's parts take ``CHURN_S`` and ``CHASE_S``.  A change that makes the
package slower or faster moves the rescaled time exactly as it moves the
raw time; a host that runs everything slower for a while moves both the
workload and the reference blocks, and cancels out.

A reference block has two parts, timed apart: container churn, which slows
down and speeds up as the solver's cache-resident searches do, and pointer
chasing through a table larger than the core's own caches, which does so
as the walks over large heaps do (building and parsing big certificates,
and the collector's passes over them).  A workload states the share of its
time that is of the second kind, ``memory_share``, and the speed is that
blend of the two parts' speeds.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

# CPU time of this thread.  While a process-wide CPU timer is armed, the
# kernel reads the process CPU clock from a total updated only once per
# scheduler tick (every 4 ms at 250 Hz); the thread clock stays exact.  The
# benchmark runs in one thread, so for it the two clocks count the same work.
clock = time.thread_time

INTERVAL_S = 0.1   # CPU seconds between reference blocks
WINDOW_S = 0.05    # reference blocks this far outside an interval still count
# The reference machine: a 2-vCPU Intel Xeon virtual machine, Python 3.11.7.
CHURN_S = 9e-3     # the churn part on the reference machine
CHASE_S = 10e-3    # the chase part on the reference machine

_ORDER, _DEGREE = 40, 8
# _STEPS steps along the single cycle through all 2**21 slots of a 16 MB
# table, in an order that defeats prefetching (i -> a*i + c mod 2**21 with
# c odd and a = 1 mod 4 visits every slot once).
_SLOTS, _STEPS = 1 << 21, 50_000


def churn() -> int:
    """Build the adjacency sets of a fixed random graph, then search it from
    every vertex with dicts, lists, tuples and sorting."""
    rng = random.Random(_ORDER)
    adj = {v: set() for v in range(_ORDER)}
    for _ in range(_ORDER * _DEGREE // 2):
        u, v = rng.randrange(_ORDER), rng.randrange(_ORDER)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    total = 0
    for s in range(_ORDER):
        depth = {s: 0}
        stack = [(s, 0)]
        while stack:
            u, d = stack.pop()
            for w in sorted(adj[u]):
                if w not in depth:
                    depth[w] = d + 1
                    stack.append((w, d + 1))
                    total += (w * d) & 7
        total += sum(len(tuple(sorted(depth.items()))[:10]) for _ in range(20))
    return total


def chase_table() -> array:
    return array("l", ((i * 1_103_515_245 + 12_345) & (_SLOTS - 1)
                       for i in range(_SLOTS)))


def chase(table: array) -> int:
    i = 0
    for _ in range(_STEPS):
        i = table[i]
    return i


class Calibrator:
    def __init__(self, memory_share: float):
        self.share = memory_share
        self.table = chase_table() if memory_share else None
        self.at = array("d")     # workload clock (``now``) at each reference block
        self.churn = array("d")  # CPU seconds of each block's churn part
        self.chase = array("d")  # ... and of its chase part (when share > 0)
        self.spent = 0.0         # CPU seconds spent in the timer handler

    def _tick(self, signum, frame):
        # With the collector off, a block neither triggers nor absorbs a
        # collection of the package's objects; it frees what it allocates.
        t0 = clock()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t1 = clock()
            churn()
            t2 = clock()
            if self.table is not None:
                chase(self.table)
                self.chase.append(clock() - t2)
            self.churn.append(t2 - t1)
        finally:
            if enabled:
                gc.enable()
        self.at.append(t0 - self.spent)
        self.spent += clock() - t0

    def now(self) -> float:
        """CPU seconds of this thread, less those spent calibrating."""
        while True:
            spent = self.spent
            t = clock()
            if self.spent == spent:  # no reference block ran in between
                return t - spent

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            self._tick(None, None)
            yield self
            self._tick(None, None)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def block_speed(self, k: int) -> float:
        """Machine speed relative to the reference machine in block ``k``."""
        speed = CHURN_S / self.churn[k]
        if self.share:
            speed += self.share * (CHASE_S / self.chase[k] - speed)
        return speed

    def speed(self, start: float, end: float) -> float:
        """Mean machine speed over the blocks within ``WINDOW_S`` of the
        workload interval ``[start, end]``, or else over the nearest block
        before it and the nearest one after it."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if hi <= lo:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return sum(map(self.block_speed, range(lo, hi))) / (hi - lo)

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of workload CPU time in ``[start, end]``, as seconds on
        the reference machine."""
        return seconds * self.speed(start, end)
