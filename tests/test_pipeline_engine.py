"""Stage engine tests: the clock, bounded bookkeeping, the stats registry.

The cycle-exactness of the stage-decomposed engine against the seed is
pinned by ``tests/test_golden_snapshots.py``; this file covers the
machinery itself: pending cycles leave the state's dicts in the cycle they
name, the clock steps through every cycle, a ``max_cycles`` overrun raises
at the same cycle with or without an observer, the ROB-sized in-flight
window and its ring, and the :class:`~repro.uarch.stats.StatsRegistry`
contribution rules.
"""

import pytest

from repro.common.errors import SimulationError
from repro.core.api import build
from repro.core.configs import ss_2way
from repro.guardrails.suite import GuardrailSuite, InvariantChecker
from repro.obs import ObserverBus, RecordingSink
from repro.uarch.core import OoOCore, SimStats, default_registry
from repro.uarch.pipeline import TimingEngine
from repro.uarch.stats import StatsRegistry

# Deep serial division chain feeding data-dependent branches: mispredicts
# park fetch behind long-latency resolution, so the machine has long idle
# windows.
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


def _idle_engine(small_build):
    """An engine over a real trace with nothing in flight: the front-end
    pipe is empty and fetch has run off the end of the trace."""
    interp = small_build.riscv.interpreter(collect_trace=True)
    interp.run(1_000_000)
    engine = TimingEngine(OoOCore(ss_2way()), interp.trace)
    engine.state.fetch_idx = engine.state.n
    return engine


def _step_to(engine, target):
    """Step the clock to ``target``, completing each passed cycle's events
    as the run loop does."""
    while engine.sched.cycle < target:
        if engine.sched.cycle in engine.state.events:
            engine.completion.tick()
        engine.sched.advance()


class TestEventScheduler:
    def test_next_event_drops_stale_entries(self, small_build):
        """A pending cycle leaves ``events`` in the cycle it names, so the
        clock never passes a stale entry."""
        engine = _idle_engine(small_build)
        engine.state.events.update({3: [0], 5: [1]})
        _step_to(engine, 4)
        assert list(engine.state.events) == [5]  # the entry at 3 is gone
        _step_to(engine, 6)
        assert engine.state.events == {}
        assert engine.sched.executed_cycles == 6

    def test_rescheduling_after_pop_is_allowed(self, small_build):
        """A passed cycle leaves nothing pending; a new key is served when
        the clock reaches it."""
        engine = _idle_engine(small_build)
        engine.state.events[5] = [0]
        _step_to(engine, 6)
        assert engine.sched.cycle == 6
        assert engine.state.events == {} and engine.state.ready_buckets == {}
        engine.state.events[8] = [1]
        _step_to(engine, 8)
        assert list(engine.state.events) == [8]
        _step_to(engine, 9)
        assert engine.state.events == {}


class TestCycleSkipping:
    """The clock steps through every cycle and skips none."""

    def test_executed_plus_skipped_equals_cycles(self):
        trace = _trace(STALL_HEAVY)
        core = OoOCore(ss_2way())
        stats = core.run(trace)
        sched = core.engine.sched
        assert sched.executed_cycles == stats.cycles
        assert sched.skipped_cycles == 0
        assert sched.executed_cycles + sched.skipped_cycles == stats.cycles

    def test_max_cycles_exceeded_parity(self):
        """A plain and an observed run raise at the same cycle with the same
        occupancy."""
        trace = _trace(STALL_HEAVY)
        payloads = []
        for observer in (None, ObserverBus([RecordingSink()])):
            core = OoOCore(ss_2way())
            with pytest.raises(SimulationError) as excinfo:
                core.run(trace, max_cycles=500, observer=observer)
            payloads.append((excinfo.value.cycle, str(excinfo.value),
                             excinfo.value.occupancy))
        assert payloads[0] == payloads[1]
        assert payloads[0][0] == 501


class _BookkeepingProbe(InvariantChecker):
    """Records the high-water marks of the in-flight window and of the
    per-seq wakeup dict."""

    name = "bookkeeping-probe"

    def __init__(self):
        self.max_in_flight = 0
        self.max_waiting = 0

    def on_cycle(self, view):
        state = view.core.engine.state
        self.max_in_flight = max(self.max_in_flight, len(view.rob))
        self.max_waiting = max(self.max_waiting, len(state.waiting))


class TestCommitPruning:
    def test_bookkeeping_empty_after_run(self):
        trace = _trace(STALL_HEAVY)
        core = OoOCore(ss_2way())
        core.run(trace)
        state = core.engine.state
        assert state.committed == state.dispatched == state.fetch_idx
        assert state.committed == len(trace)
        assert not state.pipe
        assert state.rob_head() is None and state.in_flight() == []
        assert state.store_addr == {}
        assert state.waiting == {}
        assert state.iq_count == 0

    def test_bookkeeping_bounded_by_rob_during_run(self):
        """The in-flight window and the wakeup dict stay ROB-sized."""
        probe = _BookkeepingProbe()
        config = ss_2way()
        suite = GuardrailSuite(config, checkers=[probe])
        core = OoOCore(config)
        trace = _trace(STALL_HEAVY)
        core.run(trace, observer=ObserverBus([suite]))
        assert 0 < probe.max_in_flight <= config.rob_entries
        assert 0 < probe.max_waiting <= config.rob_entries
        # Per-instruction state lives in rings of ROB size.
        state = core.engine.state
        assert len(state.rob_slots) < 2 * config.rob_entries
        assert len(state.iq_remaining) < 2 * config.rob_entries
        # Steady-state, not O(trace): far more instructions ran than the
        # window ever held.
        assert len(trace) > 4 * probe.max_in_flight


class TestRobRing:
    def test_late_completion_leaves_new_occupant(self, small_build):
        """A completion event for a seq a fault already committed must not
        mark the younger instruction now in its ring slot done."""
        engine = _idle_engine(small_build)
        state = engine.state
        ring = len(state.rob_slots)
        state.committed, state.dispatched = 1, ring + 1
        slot = state.rob_slots[0]
        slot.seq, slot.done = ring, False
        state.events[engine.sched.cycle] = [0]
        engine.completion.tick()
        assert not slot.done
        state.events[engine.sched.cycle] = [ring]
        engine.completion.tick()
        assert slot.done


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
