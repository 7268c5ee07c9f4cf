"""The simulation clock of the timing engine.

Every future cycle at which something is due is already held by the
pipeline state: completion events and issue-queue ready buckets are the
keys of its ``events`` and ``ready_buckets`` dicts.  The clock itself is a
counter that steps one cycle at a time through every cycle of the run, as
the monolithic seed engine did (see
:meth:`repro.uarch.pipeline.TimingEngine.run`).
"""


class EventScheduler:
    """The simulation clock plus its executed-cycle count."""

    __slots__ = ("cycle", "executed_cycles")

    def __init__(self, start=0):
        self.cycle = start
        #: cycles in which the stages ran
        self.executed_cycles = 0

    @property
    def skipped_cycles(self):
        """Cycles the clock passed without running them: none, since the
        clock steps through every cycle."""
        return 0

    def advance(self):
        """Step the clock by one executed cycle."""
        self.cycle += 1
        self.executed_cycles += 1

    def __repr__(self):
        return (f"EventScheduler(cycle={self.cycle}, "
                f"executed={self.executed_cycles})")
