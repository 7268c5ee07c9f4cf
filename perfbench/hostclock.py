"""Host CPU time scaled to a reference host speed.

The simulation workloads are single-threaded and in-process, so their host
time is this process's CPU time (``time.process_time``), which leaves out
the moments the shared host runs something else.  The host's speed itself
still drifts: on a shared 2-vCPU host a fixed Python loop took anywhere
from 11 to 22 ms, in stretches of seconds to minutes, and whole passes over
the full_grid cells took 11.5 to 16.3 CPU seconds in one process.  No
number of repeats inside a 40-second run averages that out.

So :meth:`ReferenceClock.time` brackets each timed call with a fixed
calibration walk, written here and never in ``src/``, and scales the call's
CPU time by ``WALK_REFERENCE_S`` over the mean of the two walks: the call's
CPU seconds at the host's reference speed.  The walk chases pointers
through objects scattered over a few MB, with attribute and dict accesses,
because that tracked the simulator's slow-downs best: over three four-pass
trials the spread of pass totals fell from 12-36% to 7-9%, against 9-11%
for a tight loop or a list walk.  Sampling the speed inside the call as
well (a walk every 50 ms from a profiling timer) made the benchmark's
spread worse, as short walks mostly measured the caches the simulator had
just filled.  A change to repro cannot speed the walk up, so it moves the
scaled time as it moves the CPU time.
"""

import random
import time

#: The walk's CPU time at the host's reference speed: its fastest on a
#: shared 2-vCPU host.  Only ratios between runs matter; this keeps scaled
#: times close to the CPU seconds of a quiet host.
WALK_REFERENCE_S = 0.019
RING_NODES = 200_000
WALK_STEPS = 60_000


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value):
        self.value = value
        self.next = None


class ReferenceClock:
    """Times calls in CPU seconds scaled to the reference host speed."""

    def __init__(self):
        rng = random.Random(0)
        nodes = [_Node(index) for index in range(RING_NODES)]
        order = list(range(RING_NODES))
        rng.shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self._start = nodes[0]
        self._table = {key: [key] for key in range(4096)}
        #: Every walk's CPU seconds, for the log.
        self.walks = []

    def walk_s(self):
        """CPU seconds of one calibration walk."""
        node, table, total = self._start, self._table, 0
        began = time.process_time()
        for _ in range(WALK_STEPS):
            node.value += 1
            total += table[node.value & 4095][0]
            node = node.next
        spent = time.process_time() - began
        self.walks.append(spent)
        return spent

    def time(self, fn):
        """``(fn(), scaled seconds, CPU seconds)`` of one call of ``fn``."""
        before = self.walk_s()
        began = time.process_time()
        result = fn()
        spent = time.process_time() - began
        after = self.walk_s()
        return result, spent * 2 * WALK_REFERENCE_S / (before + after), spent
