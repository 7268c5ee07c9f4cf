"""The shared out-of-order timing core (trace-driven, component-based).

Models, per cycle: fetch with branch/target/return prediction and I-cache
stalls; a fixed-depth front-end pipe; dispatch with ROB/IQ/LSQ/rename
structural stalls; wakeup-select issue with per-class ports; load-store
queue with store-to-load forwarding, memory-dependence prediction and
violation replays; data-cache hierarchy with a stream prefetcher; in-order
commit.  Misprediction recovery timing is delegated to the front-end model
(the architectural difference under study).

Trace-driven means wrong-path instructions are not executed: fetch stalls at
a mispredicted branch until it resolves, then pays the front-end refill plus
the model-specific recovery cost (SS: RMT restore by ROB walking; STRAIGHT:
one ROB-entry read).  Wrong-path cache pollution is not modeled (see
DESIGN.md).

This module owns the per-core structures that persist across runs (caches,
predictors, LSQ, front-end model) and the public ``run`` entry point.  The
cycle-by-cycle machinery lives in :mod:`repro.uarch.pipeline` as explicit
stage components driven by an event scheduler (:mod:`repro.uarch.scheduler`)
that skips provably-idle cycles; :class:`~repro.uarch.stats.SimStats` and
its :class:`~repro.uarch.stats.StatsRegistry` are re-exported here for
backwards compatibility.
"""

from repro.common.trace import CompactTrace
from repro.isa.timing import C_LOAD, C_STORE
from repro.uarch.branch import make_predictor, BranchTargetBuffer, ReturnAddressStack
from repro.uarch.frontend_models import FRONTEND_MODELS
from repro.uarch.lsq import LoadStoreQueue, MemDependencePredictor
from repro.uarch.stats import SimStats, StatsRegistry, default_registry

__all__ = ["OoOCore", "SimStats", "StatsRegistry", "default_registry"]


class OoOCore:
    """One configured core; ``run(trace)`` returns :class:`SimStats`.

    ``guardrails`` is an optional :class:`~repro.guardrails.GuardrailSuite`;
    when ``None`` (the default) no hook is consulted and the run takes the
    exact fast path — including event-driven cycle skipping — so cycle
    counts are identical to a guardrail-free build.
    """

    def __init__(self, config, guardrails=None):
        self.config = config
        self.guardrails = guardrails
        self.stats = SimStats()
        self.hierarchy = config.build_hierarchy()
        self.predictor = make_predictor(config.predictor)
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.ras = ReturnAddressStack(config.ras_depth)
        self.frontend = FRONTEND_MODELS[config.frontend_model](config, self.stats)
        self.lsq = LoadStoreQueue(config.lsq_loads, config.lsq_stores)
        self.mdp = MemDependencePredictor()
        self.engine = None  # the TimingEngine of the most recent run

    def compact(self, trace):
        """``trace`` in the compact form this core's front end replays.

        Recorded traces pass through; a list of
        :class:`~repro.common.trace.TraceEntry` objects (synthetic or
        edited traces) goes through the one adapter.
        """
        if isinstance(trace, CompactTrace):
            return trace
        return CompactTrace.from_entries(
            trace, self.frontend.register_model == "distance")

    def warm_caches(self, trace):
        """Pre-touch every instruction and data line of ``trace``.

        The paper measures thousands of benchmark iterations, so cold
        compulsory misses are negligible; a Python-scale run is short enough
        that they would dominate.  Warming reproduces the steady state the
        paper measures (hit/miss statistics are reset afterwards).

        Consecutive fetches from one I-cache line touch it once: a repeat
        is an L1I hit on the line already at MRU (only data accesses run in
        between, and they never touch the L1I), so the only thing it would
        change is the hit counter that warming resets anyway.
        """
        trace = self.compact(trace)
        hierarchy = self.hierarchy
        access_instr = hierarchy.access_instr
        access_data = hierarchy.access_data
        ops = trace.table.ops
        mem = iter(trace.mem)
        line_shift = (hierarchy.line_bytes - 1).bit_length()
        last_line = None
        for index in trace.idx:
            op = ops[index]
            pc = op.pc
            line = pc >> line_shift
            if line != last_line:
                access_instr(pc)
                last_line = line
            cls = op.cls
            if cls == C_LOAD or cls == C_STORE:
                addr = next(mem)
                if addr is not None:
                    access_data(addr, is_store=cls == C_STORE)
        for level in (
            self.hierarchy.l1i,
            self.hierarchy.l1d,
            self.hierarchy.l2,
            self.hierarchy.l3,
        ):
            if level is not None:
                level.hits = 0
                level.misses = 0

    # ------------------------------------------------------------------ run --

    def run(self, trace, max_cycles=200_000_000, warm=False, idle_skip=True,
            observer=None):
        """Simulate ``trace`` to completion and return the stats.

        ``idle_skip=False`` forces cycle-by-cycle stepping (benchmarks use
        it to measure the event-driven speedup); attaching a guardrail suite
        disables skipping regardless, so per-cycle hooks see every cycle.
        ``observer`` is an optional :class:`~repro.obs.ObserverBus`; an empty
        or ``None`` bus leaves the hot path untouched, and a bus with a
        cycle-granular sink (the stall accountant) also disables skipping.
        """
        trace = self.compact(trace)
        if warm:
            self.warm_caches(trace)
        # Trace positions restart at 0 every run: per-run front-end state
        # (the rename table) must not leak across runs on a reused core.
        self.frontend.reset_run()
        from repro.uarch.pipeline import TimingEngine

        self.engine = TimingEngine(
            self, trace, guardrails=self.guardrails, idle_skip=idle_skip,
            observer=observer,
        )
        return self.engine.run(max_cycles)
