"""The simulation clock of the timing engine.

Every future cycle at which *anything* can happen is already held by the
pipeline state: completion events and issue-queue ready buckets are the
keys of its ``events`` and ``ready_buckets`` dicts, and fetch resumption
and front-end pipe readiness / rename unblocking are stage-computed wakes.
While any stage can make progress the clock steps cycle-by-cycle exactly
like the monolithic seed engine.  When every stage reports idle (see
:meth:`repro.uarch.pipeline.TimingEngine.run`), the engine takes the
earliest of those cycles and *jumps* the clock there directly, skipping
the Python-interpreter iterations the seed engine burned on cycles where
provably nothing could change.

The idle-skip invariant: the clock may only jump over cycles in which no
stage could have made progress and no statistic could have been
incremented.  Guardrailed runs disable jumping entirely so per-cycle hooks
(watchdog, fault-injection schedules, periodic deep scans) observe every
cycle, exactly as the seed engine did.
"""


class EventScheduler:
    """The simulation clock plus its executed/skipped cycle split."""

    __slots__ = ("cycle", "executed_cycles", "skipped_cycles")

    def __init__(self, start=0):
        self.cycle = start
        #: cycles in which the stages actually ticked
        self.executed_cycles = 0
        #: cycles the clock jumped over because every stage was idle
        self.skipped_cycles = 0

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
                f"executed={self.executed_cycles}, "
                f"skipped={self.skipped_cycles})")
