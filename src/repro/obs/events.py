"""The pipeline event bus: per-instruction lifecycle events for observers.

The timing engine (:mod:`repro.uarch.pipeline`) publishes one event per
lifecycle transition of every in-flight instruction — fetch, dispatch,
issue, completion, commit, plus mispredict / recovery / replay-squash cause
events — and the end of every simulated cycle into an
:class:`ObserverBus` that fans them out to attached :class:`PipelineSink`
instances.  The engine only calls the bus when one was attached *and* it
has at least one sink (``bus.active``), so the default path — no observer —
executes the seed's exact instruction stream with zero added work beyond
the existing ``is None`` checks.

The bus calls its sinks in attach order, hook by hook.  A guardrail suite
(:class:`~repro.guardrails.GuardrailSuite`) is a sink too, attached last,
so at each cycle end it checks what the other sinks (the stall
accountant) just charged.
"""

#: Lifecycle event kinds, in pipeline order.  Sinks that record generic
#: event streams (tests, ad-hoc tooling) use these tags; the built-in sinks
#: get one method per kind instead so the engine's hot path stays cheap.
EVENT_KINDS = (
    "fetch",
    "mispredict",
    "dispatch",
    "issue",
    "complete",
    "recovery",
    "commit",
    "squash",
)


class PipelineSink:
    """Base class for event consumers; override only what you need."""

    name = "sink"

    def begin_run(self, core, state, sched):
        """Called once before the first cycle with the live engine state."""

    def on_fetch(self, seq, entry, cycle):
        """Instruction ``seq`` entered the front-end pipe this cycle."""

    def on_mispredict(self, seq, entry, cycle):
        """Fetch stalled on a mispredicted branch/return at ``seq``."""

    def on_dispatch(self, seq, entry, cycle, tags):
        """``seq`` was renamed/operand-determined and entered ROB (+IQ).

        ``tags`` are the producer trace-sequence numbers the instruction
        waits on (the dependence edges, both ISAs normalized to seqs).
        """

    def on_issue(self, seq, entry, cycle, done_at):
        """``seq`` left the issue queue; its result arrives at ``done_at``."""

    def on_complete(self, seq, cycle):
        """``seq``'s completion event fired (result available)."""

    def on_recovery(self, seq, entry, cycle, blocked_until):
        """The awaited mispredicted branch ``seq`` resolved this cycle;
        dispatch stays blocked until ``blocked_until`` (front-end model's
        recovery cost: SS RMT-restoring ROB walk vs STRAIGHT's one read)."""

    def on_squash(self, seq, cycle, cause):
        """``seq`` must replay (e.g. a memory-order violation victim)."""

    def on_commit(self, seq, entry, cycle):
        """``seq`` retired."""

    def on_cycle_end(self, cycle):
        """End of simulated cycle ``cycle``; called for every cycle."""

    def end_run(self, stats):
        """Called once after the run with the final :class:`SimStats`."""


class ObserverBus:
    """Fans pipeline events out to attached sinks.

    The bus is deliberately dumb: it owns no policy, only sink lists.  The
    per-kind fan-out lists are precomputed at attach time so a sink that
    ignores an event kind costs nothing at that site, and ``on_cycle_end``
    — the only per-cycle call — touches only the sinks that override it.
    """

    def __init__(self, sinks=()):
        self.sinks = []
        self._rebuild()
        for sink in sinks:
            self.attach(sink)

    def attach(self, sink):
        """Add one sink; returns the bus for chaining."""
        self.sinks.append(sink)
        self._rebuild()
        return self

    def _rebuild(self):
        base = PipelineSink
        by_kind = {}
        for hook in ("on_fetch", "on_mispredict", "on_dispatch", "on_issue",
                     "on_complete", "on_recovery", "on_squash", "on_commit",
                     "on_cycle_end"):
            by_kind[hook] = [s for s in self.sinks
                             if getattr(type(s), hook) is not getattr(base, hook)]
        self._fetch = by_kind["on_fetch"]
        self._mispredict = by_kind["on_mispredict"]
        self._dispatch = by_kind["on_dispatch"]
        self._issue = by_kind["on_issue"]
        self._complete = by_kind["on_complete"]
        self._recovery = by_kind["on_recovery"]
        self._squash = by_kind["on_squash"]
        self._commit = by_kind["on_commit"]
        self._cycle = by_kind["on_cycle_end"]

    @property
    def active(self):
        """False for an empty bus — the engine then drops it entirely."""
        return bool(self.sinks)

    # -- engine-facing hooks -------------------------------------------------

    def begin_run(self, core, state, sched):
        for sink in self.sinks:
            sink.begin_run(core, state, sched)

    def on_fetch(self, seq, entry, cycle):
        for sink in self._fetch:
            sink.on_fetch(seq, entry, cycle)

    def on_mispredict(self, seq, entry, cycle):
        for sink in self._mispredict:
            sink.on_mispredict(seq, entry, cycle)

    def on_dispatch(self, seq, entry, cycle, tags):
        for sink in self._dispatch:
            sink.on_dispatch(seq, entry, cycle, tags)

    def on_issue(self, seq, entry, cycle, done_at):
        for sink in self._issue:
            sink.on_issue(seq, entry, cycle, done_at)

    def on_complete(self, seq, cycle):
        for sink in self._complete:
            sink.on_complete(seq, cycle)

    def on_recovery(self, seq, entry, cycle, blocked_until):
        for sink in self._recovery:
            sink.on_recovery(seq, entry, cycle, blocked_until)

    def on_squash(self, seq, cycle, cause):
        for sink in self._squash:
            sink.on_squash(seq, cycle, cause)

    def on_commit(self, seq, entry, cycle):
        for sink in self._commit:
            sink.on_commit(seq, entry, cycle)

    def on_cycle_end(self, cycle):
        for sink in self._cycle:
            sink.on_cycle_end(cycle)

    def end_run(self, stats):
        for sink in self.sinks:
            sink.end_run(stats)

    def __repr__(self):
        names = ", ".join(sink.name for sink in self.sinks)
        return f"ObserverBus([{names}])"


class RecordingSink(PipelineSink):
    """Appends every event as a tuple — test scaffolding and ad-hoc tools.

    ``records`` is a list of ``(kind, cycle, seq, detail)`` tuples in
    emission order; ``detail`` is the kind-specific extra (producer tags at
    dispatch, completion cycle at issue, cause at squash, ...).
    """

    name = "recording"

    def __init__(self):
        self.records = []

    def on_fetch(self, seq, entry, cycle):
        self.records.append(("fetch", cycle, seq, entry.mnemonic))

    def on_mispredict(self, seq, entry, cycle):
        self.records.append(("mispredict", cycle, seq, entry.mnemonic))

    def on_dispatch(self, seq, entry, cycle, tags):
        self.records.append(("dispatch", cycle, seq, tuple(tags)))

    def on_issue(self, seq, entry, cycle, done_at):
        self.records.append(("issue", cycle, seq, done_at))

    def on_complete(self, seq, cycle):
        self.records.append(("complete", cycle, seq, None))

    def on_recovery(self, seq, entry, cycle, blocked_until):
        self.records.append(("recovery", cycle, seq, blocked_until))

    def on_squash(self, seq, cycle, cause):
        self.records.append(("squash", cycle, seq, cause))

    def on_commit(self, seq, entry, cycle):
        self.records.append(("commit", cycle, seq, None))

    def of_kind(self, kind):
        return [r for r in self.records if r[0] == kind]
