"""Guardrail suite: the timing core's hook bus for checkers and injectors.

The timing engine (:mod:`repro.uarch.pipeline`) stays unaware of what runs
behind the guardrails: it calls ``begin_run`` / ``on_dispatch`` /
``on_commit`` / ``on_cycle`` / ``end_run`` on one :class:`GuardrailSuite`
*only when one was attached*, so the default (guardrails disabled) path
executes exactly the same instruction stream and reproduces its cycle counts
bit-for-bit.  Attaching a suite also disables event-driven cycle skipping,
so per-cycle hooks observe every cycle.

The suite exposes the engine's live :class:`~repro.uarch.pipeline.PipelineState`
to checkers through a :class:`GuardView` — shared structure references plus
live scalars read straight off the state and scheduler — and keeps a bounded
log of the most recently committed instructions so every raised guardrail
error carries a replayable window of the commit stream.
"""

from collections import deque

from repro.common.errors import GuardrailError


def _entry_summary(entry):
    """Compact JSON-friendly view of one committed instruction's entry."""
    summary = {
        "pc": entry.pc,
        "mnemonic": entry.mnemonic,
        "dest": entry.dest,
        "dest_value": entry.dest_value,
    }
    if entry.mem_addr is not None:
        summary["mem_addr"] = entry.mem_addr
    if entry.is_control:
        summary["taken"] = entry.taken
    return summary


class GuardView:
    """Window into one running :class:`~repro.uarch.core.OoOCore` instance.

    ``rob``/``rob_by_seq``/``pipe``/``reg_ready``/``lsq`` are the engine's
    own mutable structures (shared references, never copies); ``cycle``,
    ``committed``, ``iq_count`` and ``fetch_idx`` are properties reading the
    live :class:`~repro.uarch.pipeline.PipelineState` and scheduler, so
    every hook sees the current value without any per-cycle refresh.
    """

    __slots__ = (
        "core",
        "config",
        "trace",
        "rob",
        "rob_by_seq",
        "pipe",
        "reg_ready",
        "lsq",
        "_state",
        "_sched",
    )

    def __init__(self, core, state, sched):
        self.core = core
        self.config = core.config
        self.trace = state.trace
        self.rob = state.rob
        self.rob_by_seq = state.rob_by_seq
        self.pipe = state.pipe
        self.reg_ready = state.reg_ready
        self.lsq = core.lsq
        self._state = state
        self._sched = sched

    @property
    def cycle(self):
        return self._sched.cycle

    @property
    def committed(self):
        return self._state.committed

    @property
    def iq_count(self):
        return self._state.iq_count

    @property
    def fetch_idx(self):
        return self._state.fetch_idx

    def occupancy(self):
        """Per-structure occupancy snapshot (attached to guardrail errors)."""
        return {
            "cycle": self.cycle,
            "rob": len(self.rob),
            "iq": self.iq_count,
            "lsq_loads": len(self.lsq.loads),
            "lsq_stores": len(self.lsq.stores),
            "pipe": len(self.pipe),
            "fetched": self.fetch_idx,
            "committed": self.committed,
        }

    def head_pc(self):
        """PC of the oldest in-flight instruction, if any."""
        return self.rob[0].entry.pc if self.rob else None


class InvariantChecker:
    """Base class: checkers override the hooks they need.

    The suite inspects which hooks are overridden so that, e.g., a
    dispatch-only checker costs nothing at commit time.
    """

    name = "checker"

    def begin_run(self, view, config):
        pass

    def on_dispatch(self, view, seq, entry, cycle):
        pass

    def on_commit(self, view, rob_entry, cycle):
        pass

    def on_cycle(self, view):
        pass

    def end_run(self, view):
        pass


class GuardrailSuite:
    """Aggregates invariant checkers, a lockstep monitor and a fault injector."""

    def __init__(self, config, checkers=(), lockstep=None, injector=None,
                 window=32):
        self.config = config
        self.checkers = list(checkers)
        self.lockstep = lockstep
        self.injector = injector
        self.commit_log = deque(maxlen=window)
        self.view = None
        self.commits_seen = 0
        self._rebuild_hook_lists()

    def _rebuild_hook_lists(self):
        base = InvariantChecker
        self._dispatch_checkers = [
            c for c in self.checkers if type(c).on_dispatch is not base.on_dispatch
        ]
        self._commit_checkers = [
            c for c in self.checkers if type(c).on_commit is not base.on_commit
        ]
        self._cycle_checkers = [
            c for c in self.checkers if type(c).on_cycle is not base.on_cycle
        ]

    def add_checker(self, checker):
        """Attach one more checker (before the run starts); returns self."""
        self.checkers.append(checker)
        self._rebuild_hook_lists()
        return self

    # -- hooks called by the timing core ------------------------------------

    def begin_run(self, core, state, sched):
        if self.lockstep is not None and state.trace.values is None:
            raise ValueError(
                "lockstep compares committed results: record the trace with "
                "trace_values=True"
            )
        self.view = GuardView(core, state, sched)
        for checker in self.checkers:
            checker.begin_run(self.view, self.config)
        if self.injector is not None:
            self.injector.begin_run(self.view)

    def on_dispatch(self, seq, entry, cycle):
        try:
            for checker in self._dispatch_checkers:
                checker.on_dispatch(self.view, seq, entry, cycle)
        except GuardrailError as exc:
            raise self._augment(exc)

    def on_commit(self, rob_entry, cycle):
        self.commits_seen += 1
        self.commit_log.append(rob_entry.entry)
        try:
            for checker in self._commit_checkers:
                checker.on_commit(self.view, rob_entry, cycle)
            if self.lockstep is not None:
                self.lockstep.on_commit(rob_entry.entry, cycle)
        except GuardrailError as exc:
            raise self._augment(exc)

    def on_cycle(self):
        view = self.view
        if self.injector is not None:
            self.injector.on_cycle(view)
        try:
            for checker in self._cycle_checkers:
                checker.on_cycle(view)
        except GuardrailError as exc:
            raise self._augment(exc)

    def end_run(self, stats):
        try:
            for checker in self.checkers:
                checker.end_run(self.view)
        except GuardrailError as exc:
            raise self._augment(exc)

    # -- reporting -----------------------------------------------------------

    def commit_window(self):
        """The last-K committed instructions as JSON-friendly dicts."""
        return [_entry_summary(entry) for entry in self.commit_log]

    def _augment(self, exc):
        """Attach the replay window and occupancy snapshot to a raised error."""
        exc.context.setdefault("commit_window", self.commit_window())
        if not exc.occupancy and self.view is not None:
            exc.occupancy = self.view.occupancy()
        return exc

    def finish(self, observed_output=None):
        """Post-run verdict; raises on a final-state divergence.

        Returns a report dict summarizing what was checked.  Called by
        :func:`repro.core.api.simulate` after the timing run returns.
        """
        report = {
            "commits_checked": self.commits_seen,
            "checkers": [checker.name for checker in self.checkers],
        }
        if self.lockstep is not None:
            report["lockstep"] = self.lockstep.finish(observed_output)
        if self.injector is not None:
            report["faults"] = self.injector.summary()
        return report
