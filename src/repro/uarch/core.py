"""The shared out-of-order timing core (trace-driven, component-based).

Models, per cycle: fetch with branch/target/return prediction and I-cache
stalls; a fixed-depth front-end pipe whose capacity is unbounded (fetch
keeps filling it while dispatch waits on a full ROB, so fetch can run
thousands of instructions ahead and an I-cache miss then stalls only
fetch, not dispatch: DESIGN.md §7); dispatch with ROB/IQ/LSQ/rename
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
stage components driven by a clock (:mod:`repro.uarch.scheduler`) that
steps through every cycle; :class:`~repro.uarch.stats.SimStats` and its
:class:`~repro.uarch.stats.StatsRegistry` are re-exported here for
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
    """One configured core; ``run(trace)`` returns :class:`SimStats`."""

    def __init__(self, config):
        self.config = config
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

    def run(self, trace, max_cycles=200_000_000, warm=False, observer=None,
            marks=()):
        """Simulate ``trace`` to completion and return the stats.

        ``observer`` is an optional :class:`~repro.obs.ObserverBus` of
        pipeline sinks, a :class:`~repro.guardrails.GuardrailSuite` among
        them; an empty or ``None`` bus leaves the hot path untouched.
        ``marks`` are commit counts; ``self.engine.marked`` then holds one
        ``(cycle, counters)`` snapshot per mark reached, in mark order.
        """
        trace = self.compact(trace)
        if warm:
            self.warm_caches(trace)
        # Trace positions restart at 0 every run: per-run front-end state
        # (the rename table) must not leak across runs on a reused core.
        self.frontend.reset_run()
        from repro.uarch.pipeline import TimingEngine

        self.engine = TimingEngine(self, trace, observer=observer,
                                   marks=marks)
        return self.engine.run(max_cycles)
