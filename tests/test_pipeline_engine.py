"""Event-driven engine tests: scheduler, cycle skipping, bounded bookkeeping.

The cycle-exactness of the stage-decomposed engine against the seed is
pinned by ``tests/test_golden_snapshots.py``; this file covers the new
machinery itself: the :class:`~repro.uarch.scheduler.EventScheduler`'s
deduplication and jump semantics, the idle-skip invariant (identical stats
with and without skipping, with a nonzero skip count on stall-heavy code),
the commit-time pruning of per-seq bookkeeping, and the
:class:`~repro.uarch.stats.StatsRegistry` contribution rules.
"""

import pytest

from repro.common.errors import SimulationError
from repro.core.api import build
from repro.core.configs import ss_2way, straight_2way
from repro.guardrails.suite import GuardrailSuite, InvariantChecker
from repro.uarch.core import OoOCore, SimStats, default_registry
from repro.uarch.scheduler import EventScheduler
from repro.uarch.stats import StatsRegistry

# Deep serial division chain feeding data-dependent branches: mispredicts
# park fetch behind long-latency resolution, so the machine has long
# provably-idle windows — the cycle skipper's best case.
STALL_HEAVY = """
int main() {
    int acc = 999999999;
    int lcg = 12345;
    for (int i = 0; i < 120; i++) {
        lcg = lcg * 1103515245 + 12345;
        int t = acc / (i + 2);
        t = t / 3 + 7;
        t = t / 2 + 5;
        t = t / 3 + 9;
        t = t / 2 + 11;
        if ((t ^ lcg) & 1) acc = 999999999 - (lcg & 255);
        else acc = 900000000 + (lcg & 1023);
    }
    __out(acc);
    return 0;
}
"""


def _trace(source, label="SS"):
    binaries = build(source)
    binary = binaries.all()[label]
    interp = binary.interpreter(collect_trace=True)
    interp.run(50_000_000)
    return interp.trace


class TestEventScheduler:
    def test_schedule_deduplicates_same_cycle(self):
        sched = EventScheduler()
        sched.schedule(7)
        sched.schedule(7)
        sched.schedule(7)
        sched.schedule(9)
        assert sched.pending() == 2
        assert sched.next_event() == 7

    def test_next_event_drops_stale_entries(self):
        sched = EventScheduler()
        sched.schedule(3)
        sched.schedule(5)
        sched.cycle = 4
        assert sched.next_event() == 5
        assert sched.pending() == 1  # the stale entry at 3 is gone

    def test_next_event_empty_returns_none(self):
        assert EventScheduler().next_event() is None

    def test_jump_counts_skipped_cycles(self):
        sched = EventScheduler()
        sched.advance()
        sched.jump(11)
        assert sched.cycle == 11
        assert sched.executed_cycles == 1
        assert sched.skipped_cycles == 10

    def test_jump_must_move_forward(self):
        sched = EventScheduler()
        sched.jump(4)
        with pytest.raises(ValueError):
            sched.jump(4)
        with pytest.raises(ValueError):
            sched.jump(2)

    def test_rescheduling_after_pop_is_allowed(self):
        sched = EventScheduler()
        sched.schedule(5)
        sched.cycle = 6
        assert sched.next_event() is None
        sched.schedule(8)
        assert sched.next_event() == 8


class TestCycleSkipping:
    def test_skip_and_step_produce_identical_stats(self):
        trace = _trace(STALL_HEAVY)
        stepped = OoOCore(ss_2way()).run(trace, idle_skip=False)
        core = OoOCore(ss_2way())
        event_driven = core.run(trace, idle_skip=True)
        assert stepped.as_dict() == event_driven.as_dict()
        assert core.engine.sched.skipped_cycles > 0

    def test_executed_plus_skipped_equals_cycles(self):
        trace = _trace(STALL_HEAVY)
        core = OoOCore(ss_2way())
        stats = core.run(trace, idle_skip=True)
        sched = core.engine.sched
        assert sched.executed_cycles + sched.skipped_cycles == stats.cycles

    def test_guardrails_disable_skipping(self):
        trace = _trace(STALL_HEAVY)
        suite = GuardrailSuite(ss_2way())
        core = OoOCore(ss_2way(), guardrails=suite)
        stats = core.run(trace)
        assert core.engine.sched.skipped_cycles == 0
        assert core.engine.sched.executed_cycles == stats.cycles

    def test_max_cycles_exceeded_parity(self):
        """Both modes raise at the same cycle with the same occupancy."""
        trace = _trace(STALL_HEAVY)
        payloads = []
        for idle_skip in (False, True):
            core = OoOCore(ss_2way())
            with pytest.raises(SimulationError) as excinfo:
                core.run(trace, max_cycles=500, idle_skip=idle_skip)
            payloads.append((excinfo.value.cycle, str(excinfo.value)))
        assert payloads[0] == payloads[1]
        assert payloads[0][0] == 501


class _BookkeepingProbe(InvariantChecker):
    """Records the high-water marks of the per-seq bookkeeping dicts."""

    name = "bookkeeping-probe"

    def __init__(self):
        self.max_reg_ready = 0
        self.max_waiting = 0

    def on_cycle(self, view):
        state = view.core.engine.state
        self.max_reg_ready = max(self.max_reg_ready, len(view.reg_ready))
        self.max_waiting = max(self.max_waiting, len(state.waiting))


class TestCommitPruning:
    def test_bookkeeping_empty_after_run(self):
        trace = _trace(STALL_HEAVY)
        core = OoOCore(ss_2way())
        core.run(trace)
        state = core.engine.state
        assert state.reg_ready == {}
        assert state.store_addr == {}
        assert state.waiting == {}
        assert state.rob_by_seq == {}
        assert state.iq_count == 0

    def test_bookkeeping_bounded_by_rob_during_run(self):
        """Pruned-at-commit dicts never exceed the in-flight window."""
        probe = _BookkeepingProbe()
        config = ss_2way()
        suite = GuardrailSuite(config, checkers=[probe])
        core = OoOCore(config, guardrails=suite)
        trace = _trace(STALL_HEAVY)
        core.run(trace)
        assert 0 < probe.max_reg_ready <= config.rob_entries
        assert 0 < probe.max_waiting <= config.rob_entries
        # Per-instruction issue-queue state lives in rings of ROB size.
        state = core.engine.state
        assert len(state.iq_remaining) < 2 * config.rob_entries
        # Steady-state, not O(trace): far more instructions ran than the
        # dicts ever held.
        assert len(trace) > 4 * probe.max_reg_ready


class TestStatsRegistry:
    def test_default_registry_matches_simstats_fields(self):
        registry = default_registry()
        stats = SimStats()
        assert stats.fields == registry.fields
        assert len(registry) == 36  # 30 engine fields + 6 attribution buckets
        data = stats.as_dict()
        for field in registry.fields:
            assert field in data

    def test_every_field_has_an_owner(self):
        registry = default_registry()
        for field in registry.fields:
            assert registry.owner_of(field) is not None
        assert registry.owner_of("cycles") == "engine"
        assert registry.owner_of("store_forwards") == "lsq"
        assert registry.owner_of("opdet_ops") == "frontend.straight"
        assert "branch_mispredicts" in registry

    def test_duplicate_contribution_rejected(self):
        registry = StatsRegistry()
        registry.contribute("a", ("x", "y"))
        with pytest.raises(ValueError):
            registry.contribute("b", ("y",))

    def test_by_owner_groups_in_contribution_order(self):
        registry = StatsRegistry()
        registry.contribute("a", ("x",))
        registry.contribute("b", ("y", "z"))
        assert registry.by_owner() == {"a": ["x"], "b": ["y", "z"]}


class TestStraightEngineParity:
    def test_straight_config_skip_parity(self):
        """The skip invariant holds for the STRAIGHT front end too."""
        trace = _trace(STALL_HEAVY, label="STRAIGHT-RE+")
        stepped = OoOCore(straight_2way()).run(trace, idle_skip=False)
        core = OoOCore(straight_2way())
        event_driven = core.run(trace, idle_skip=True)
        assert stepped.as_dict() == event_driven.as_dict()
