"""Guardrail suite: one pipeline sink fanning out to checkers and injectors.

The timing engine (:mod:`repro.uarch.pipeline`) stays unaware of what runs
behind the guardrails: a :class:`GuardrailSuite` is a
:class:`~repro.obs.events.PipelineSink`, attached last to the run's
:class:`~repro.obs.events.ObserverBus`, and it hands ``begin_run`` /
``on_dispatch`` / ``on_commit`` / ``on_cycle_end`` / ``end_run`` on to its
checkers, lockstep monitor and fault injector.  A run without a suite
executes exactly the same instruction stream and reproduces its cycle
counts bit-for-bit.

The suite exposes the engine's live :class:`~repro.uarch.pipeline.PipelineState`
to checkers through a :class:`GuardView` — the engine's own ROB slot objects
and LSQ plus live scalars read straight off the state and scheduler — and
keeps a bounded log of the most recently committed instructions so every
raised guardrail error carries a replayable window of the commit stream.
"""

from collections import deque

from repro.common.errors import GuardrailError
from repro.obs.events import PipelineSink


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

    ``lsq`` is the engine's own LSQ (a shared reference, never a copy).
    ``rob`` lists the engine's own in-flight ROB slot objects, oldest
    first, built on each access, so a write to a slot (fault injection)
    lands in the engine.  ``cycle``, ``committed``, ``rob_occupancy``,
    ``iq_count`` and ``fetch_idx`` are properties reading the live
    :class:`~repro.uarch.pipeline.PipelineState` and scheduler, so every
    hook sees the current value without any per-cycle refresh.
    """

    __slots__ = (
        "core",
        "config",
        "trace",
        "lsq",
        "_state",
        "_sched",
    )

    def __init__(self, core, state, sched):
        self.core = core
        self.config = core.config
        self.trace = state.trace
        self.lsq = core.lsq
        self._state = state
        self._sched = sched

    @property
    def rob(self):
        return self._state.in_flight()

    @property
    def cycle(self):
        return self._sched.cycle

    @property
    def committed(self):
        return self._state.committed

    @property
    def rob_occupancy(self):
        state = self._state
        return state.dispatched - state.committed

    @property
    def iq_count(self):
        return self._state.iq_count

    @property
    def fetch_idx(self):
        return self._state.fetch_idx

    def occupancy(self):
        """Per-structure occupancy snapshot (attached to guardrail errors)."""
        return {"cycle": self.cycle, **self._state.occupancy(self.lsq)}

    def head_pc(self):
        """PC of the oldest in-flight instruction, if any."""
        head = self._state.rob_head()
        return None if head is None else head.entry.pc


class InvariantChecker:
    """Base class: checkers override the hooks they need.

    The suite inspects which hooks are overridden so that, e.g., a
    dispatch-only checker costs nothing at commit time.  ``on_dispatch``
    receives the instruction's :class:`~repro.common.trace.TraceEntry`;
    ``on_commit`` receives its ROB slot, whose ``entry`` is the static
    record (:class:`~repro.isa.timing.StaticOp`).
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


class GuardrailSuite(PipelineSink):
    """Aggregates invariant checkers, a lockstep monitor and a fault injector.

    Attach it as the last sink of a run's observer bus
    (:func:`repro.core.api.simulate` does), so at each hook it sees what
    the other sinks did first.
    """

    name = "guardrails"

    def __init__(self, config, checkers=(), lockstep=None, injector=None,
                 window=32):
        self.config = config
        self.checkers = list(checkers)
        self.lockstep = lockstep
        self.injector = injector
        self.commit_log = deque(maxlen=window)
        self.view = None
        self._state = None
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

    # -- sink hooks ----------------------------------------------------------

    def begin_run(self, core, state, sched):
        if self.lockstep is not None and state.trace.values is None:
            raise ValueError(
                "lockstep compares committed results: record the trace with "
                "trace_values=True"
            )
        self.view = GuardView(core, state, sched)
        self._state = state
        for checker in self.checkers:
            checker.begin_run(self.view, self.config)
        if self.injector is not None:
            self.injector.begin_run(self.view)

    def on_dispatch(self, seq, op, cycle, tags):
        if not self._dispatch_checkers:
            return
        entry = self._state.trace.entry(seq)
        try:
            for checker in self._dispatch_checkers:
                checker.on_dispatch(self.view, seq, entry, cycle)
        except GuardrailError as exc:
            raise self._augment(exc)

    def on_commit(self, seq, op, cycle):
        self.commits_seen += 1
        state = self._state
        entry = state.trace.entry(seq)
        self.commit_log.append(entry)
        rob_entry = state.rob_slots[seq & state.ring_mask]
        try:
            for checker in self._commit_checkers:
                checker.on_commit(self.view, rob_entry, cycle)
            if self.lockstep is not None:
                self.lockstep.on_commit(entry, cycle)
        except GuardrailError as exc:
            raise self._augment(exc)

    def on_cycle_end(self, cycle):
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
