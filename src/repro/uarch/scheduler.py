"""The event scheduler: one owner for the clock and every wake-up cycle.

The timing engine registers every future cycle at which *anything* can
happen — completion events, issue-queue ready buckets, fetch resumption,
rename unblocking — with one :class:`EventScheduler`.  While any stage can
make progress the clock steps cycle-by-cycle exactly like the monolithic
seed engine.  When every stage reports idle (see
:meth:`repro.uarch.pipeline.TimingEngine.run`), the engine asks the
scheduler for the next scheduled cycle and *jumps* the clock there
directly, skipping the Python-interpreter iterations the seed engine burned
on cycles where provably nothing could change.

The idle-skip invariant: the clock may only jump over cycles in which no
stage could have made progress and no statistic could have been
incremented.  Guardrailed runs disable jumping entirely so per-cycle hooks
(watchdog, fault-injection schedules, periodic deep scans) observe every
cycle, exactly as the seed engine did.

Scheduled cycles are deduplicated: the seed engine pushed the same cycle
onto its ``event_cycles`` heap once per event source (a completion and a
ready bucket landing on the same cycle produced two heap entries), which
inflated the heap on wakeup-heavy traces.  Here a shadow set keeps each
pending cycle in the heap exactly once, and passed cycles leave both
whenever a new cycle is scheduled — also on cores that never skip, whose
clock never asks for the next event.
"""

from heapq import heappop, heappush


class EventScheduler:
    """Deduplicated min-heap of wake cycles plus the simulation clock."""

    __slots__ = ("cycle", "executed_cycles", "skipped_cycles", "_heap",
                 "_scheduled")

    def __init__(self, start=0):
        self.cycle = start
        #: cycles in which the stages actually ticked
        self.executed_cycles = 0
        #: cycles the clock jumped over because every stage was idle
        self.skipped_cycles = 0
        self._heap = []
        self._scheduled = set()

    # -- event registration --------------------------------------------------

    def schedule(self, at):
        """Register ``at`` as a cycle where some stage may make progress.

        Cycles the clock has already passed are dropped first, so the heap
        holds only the pending ones even on cores that never skip.
        """
        scheduled = self._scheduled
        if at not in scheduled:
            heap = self._heap
            cycle = self.cycle
            while heap and heap[0] < cycle:
                scheduled.discard(heappop(heap))
            scheduled.add(at)
            heappush(heap, at)

    def pending(self):
        """Number of distinct future cycles currently scheduled."""
        return len(self._scheduled)

    def next_event(self):
        """Earliest scheduled cycle strictly after the clock, or ``None``.

        Entries at or before the current cycle are stale — their events were
        consumed when that cycle executed — and are dropped on the way.
        """
        heap = self._heap
        cycle = self.cycle
        while heap and heap[0] <= cycle:
            self._scheduled.discard(heappop(heap))
        return heap[0] if heap else None

    # -- clock ---------------------------------------------------------------

    def advance(self):
        """Step the clock by one executed cycle."""
        self.cycle += 1
        self.executed_cycles += 1

    def jump(self, target):
        """Move the clock directly to ``target`` without executing cycles."""
        delta = target - self.cycle
        if delta <= 0:
            raise ValueError(
                f"scheduler jump must move forward: {self.cycle} -> {target}"
            )
        self.skipped_cycles += delta
        self.cycle = target

    def __repr__(self):
        return (f"EventScheduler(cycle={self.cycle}, "
                f"pending={self.pending()}, "
                f"executed={self.executed_cycles}, "
                f"skipped={self.skipped_cycles})")
