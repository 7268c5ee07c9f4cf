"""Guardrail tests: each invariant checker against a hand-built violating
state, the watchdog and lockstep end-to-end, the zero-overhead fast path,
structured errors, crash dumps and the hardened sweep driver."""

import json
import os
import time
from collections import deque

import pytest

from repro import isa as isa_registry
from repro.common.errors import (
    DeadlockError,
    DivergenceError,
    InvariantViolation,
    RunTimeoutError,
    SimulationError,
)
from repro.common.trace import TraceEntry
from repro.core.api import simulate
from repro.core.configs import ss_2way, straight_2way
from repro.guardrails import build_guardrails
from repro.guardrails.checkers import (
    CommitSanityChecker,
    DistanceBoundChecker,
    FreelistChecker,
    OccupancyChecker,
    PredictorStateChecker,
    Watchdog,
    WriteOnceChecker,
)
from repro.guardrails.crashdump import write_crash_dump, write_manifest
from repro.harness.runner import clear_cache, deadline, timed_run
from tests.conftest import SMALL_PROGRAM_OUTPUT


# --------------------------------------------------------------- test rigs


def _entry(pc=0x100, op_class="alu", dest=1, src_distances=()):
    return TraceEntry(pc, op_class, "test-op", dest=dest,
                      src_distances=src_distances)


class _FakeRobEntry:
    def __init__(self, seq, entry, done=False):
        self.seq = seq
        self.entry = entry
        self.done = done


class _FakeLsq:
    def __init__(self, load_entries=8, store_entries=8):
        self.loads = []
        self.stores = []
        self.load_entries = load_entries
        self.store_entries = store_entries


class _FakePredictor:
    def __init__(self, table, history=0, history_mask=0xFF):
        self.table = table
        self.history = history
        self.history_mask = history_mask


class _FakeFrontend:
    def __init__(self, free_regs):
        self.free_regs = free_regs


class _FakeCore:
    def __init__(self, predictor=None, frontend=None):
        self.predictor = predictor
        self.frontend = frontend


class _FakeView:
    """Duck-typed GuardView: just enough state for the checker hooks."""

    def __init__(self, config, core=None):
        self.config = config
        self.core = core or _FakeCore()
        self.trace = []
        self.rob = deque()
        self.rob_by_seq = {}
        self.pipe = deque()
        self.reg_ready = {}
        self.lsq = _FakeLsq()
        self.cycle = 0
        self.committed = 0
        self.iq_count = 0
        self.fetch_idx = 0

    def occupancy(self):
        return {"cycle": self.cycle, "rob": len(self.rob),
                "iq": self.iq_count, "committed": self.committed}

    def head_pc(self):
        return self.rob[0].entry.pc if self.rob else None

    def add_rob(self, seq, entry=None, done=False):
        rob_entry = _FakeRobEntry(seq, entry or _entry(), done)
        self.rob.append(rob_entry)
        self.rob_by_seq[seq] = rob_entry
        return rob_entry


# ------------------------------------------------------------ unit checkers


class TestWriteOnceChecker:
    def test_double_claim_of_one_rp_slot(self):
        checker = WriteOnceChecker(max_rp=64)
        view = _FakeView(straight_2way())
        checker.on_dispatch(view, 5, _entry(), cycle=10)
        with pytest.raises(InvariantViolation) as info:
            checker.on_dispatch(view, 5 + 64, _entry(), cycle=12)
        assert "write-once" in str(info.value)
        assert info.value.context["reg"] == 5
        assert info.value.cycle == 12

    def test_commit_returns_wrong_owner(self):
        checker = WriteOnceChecker(max_rp=64)
        view = _FakeView(straight_2way())
        checker.on_dispatch(view, 7, _entry(), cycle=1)
        # Commit a seq mapping to the same slot that never dispatched.
        with pytest.raises(InvariantViolation, match="accounting mismatch"):
            checker.on_commit(view, _FakeRobEntry(7 + 64, _entry()), cycle=2)

    def test_clean_dispatch_commit_cycle(self):
        checker = WriteOnceChecker(max_rp=64)
        view = _FakeView(straight_2way())
        for seq in range(200):  # wraps the RP space three times
            checker.on_dispatch(view, seq, _entry(), cycle=seq)
            checker.on_commit(view, _FakeRobEntry(seq, _entry()), cycle=seq)
        assert not checker.inflight


class TestDistanceBoundChecker:
    def test_distance_over_bound(self):
        checker = DistanceBoundChecker(max_distance=31)
        view = _FakeView(straight_2way())
        entry = _entry(src_distances=(3, 32))
        with pytest.raises(InvariantViolation) as info:
            checker.on_dispatch(view, 1, entry, cycle=4)
        assert info.value.context["distance"] == 32

    def test_distance_at_bound_passes(self):
        checker = DistanceBoundChecker(max_distance=31)
        view = _FakeView(straight_2way())
        checker.on_dispatch(view, 1, _entry(src_distances=(31, 1)), cycle=4)


class TestFreelistChecker:
    def test_leak_detected(self):
        config = ss_2way()
        checker = FreelistChecker(interval=1)
        view = _FakeView(config)
        view.core = _FakeCore(frontend=_FakeFrontend(config.phys_regs - 32))
        view.add_rob(0, _entry(dest=3))  # an in-flight dest nothing freed for
        with pytest.raises(InvariantViolation, match="free-list leak"):
            checker.on_cycle(view)

    def test_out_of_range_free_count(self):
        config = ss_2way()
        checker = FreelistChecker(interval=1)
        view = _FakeView(config)
        view.core = _FakeCore(frontend=_FakeFrontend(config.phys_regs))
        with pytest.raises(InvariantViolation, match="out of range"):
            checker.on_cycle(view)

    def test_balanced_state_passes(self):
        config = ss_2way()
        checker = FreelistChecker(interval=1)
        view = _FakeView(config)
        view.core = _FakeCore(frontend=_FakeFrontend(config.phys_regs - 33))
        view.add_rob(0, _entry(dest=3))
        checker.on_cycle(view)


class TestOccupancyChecker:
    def test_rob_overflow(self):
        config = straight_2way()
        checker = OccupancyChecker(deep_interval=1 << 30)
        view = _FakeView(config)
        view.cycle = 1  # keep the deep scan quiet; bound check must fire
        for seq in range(config.rob_entries + 1):
            view.add_rob(seq)
        with pytest.raises(InvariantViolation, match="ROB occupancy"):
            checker.on_cycle(view)

    def test_index_size_mismatch(self):
        checker = OccupancyChecker(deep_interval=1 << 30)
        view = _FakeView(straight_2way())
        view.cycle = 1
        view.add_rob(0)
        view.rob_by_seq[99] = object()  # stale index entry
        with pytest.raises(InvariantViolation, match="ROB index"):
            checker.on_cycle(view)

    def test_deep_scan_catches_reordered_seqs(self):
        checker = OccupancyChecker(deep_interval=1)
        view = _FakeView(straight_2way())
        view.add_rob(5)
        view.add_rob(3)  # out of order: seq must be monotone along the ROB
        with pytest.raises(InvariantViolation, match="order corrupted"):
            checker.on_cycle(view)

    def test_deep_scan_catches_index_aliasing(self):
        checker = OccupancyChecker(deep_interval=1)
        view = _FakeView(straight_2way())
        a = view.add_rob(1)
        view.add_rob(2)
        view.rob_by_seq[2] = a  # index points at the wrong entry object
        with pytest.raises(InvariantViolation, match="index inconsistent"):
            checker.on_cycle(view)


class TestCommitSanityChecker:
    def test_commit_without_done_flag(self):
        checker = CommitSanityChecker()
        view = _FakeView(straight_2way())
        rob_entry = view.add_rob(0, done=False)
        with pytest.raises(InvariantViolation, match="without done flag"):
            checker.on_commit(view, rob_entry, cycle=9)

    def test_commit_before_completion_event(self):
        checker = CommitSanityChecker()
        view = _FakeView(straight_2way())
        rob_entry = view.add_rob(0, done=True)
        view.reg_ready[0] = 50  # completes in the future
        with pytest.raises(InvariantViolation) as info:
            checker.on_commit(view, rob_entry, cycle=9)
        assert info.value.context["ready"] == 50

    def test_commit_never_issued(self):
        checker = CommitSanityChecker()
        view = _FakeView(straight_2way())
        rob_entry = view.add_rob(0, done=True)  # no reg_ready record at all
        with pytest.raises(InvariantViolation, match="completion is recorded"):
            checker.on_commit(view, rob_entry, cycle=9)

    def test_clean_commit_passes(self):
        checker = CommitSanityChecker()
        view = _FakeView(straight_2way())
        rob_entry = view.add_rob(0, done=True)
        view.reg_ready[0] = 5
        checker.on_commit(view, rob_entry, cycle=9)


class TestPredictorStateChecker:
    def test_gshare_counter_out_of_range(self):
        checker = PredictorStateChecker(interval=1)
        view = _FakeView(straight_2way())
        view.core = _FakeCore(predictor=_FakePredictor([1, 2, 5, 0]))
        with pytest.raises(InvariantViolation, match="counter"):
            checker.on_cycle(view)

    def test_gshare_history_exceeds_mask(self):
        checker = PredictorStateChecker(interval=1)
        view = _FakeView(straight_2way())
        view.core = _FakeCore(
            predictor=_FakePredictor([1, 2], history=0x100, history_mask=0xFF)
        )
        with pytest.raises(InvariantViolation, match="history"):
            checker.on_cycle(view)

    def test_clean_gshare_passes(self):
        checker = PredictorStateChecker(interval=1)
        view = _FakeView(straight_2way())
        view.core = _FakeCore(predictor=_FakePredictor([0, 1, 2, 3]))
        checker.on_cycle(view)


class TestWatchdog:
    def test_trips_after_limit_without_commits(self):
        watchdog = Watchdog(limit=100)
        view = _FakeView(straight_2way())
        view.trace = [None] * 10
        watchdog.begin_run(view, view.config)
        view.cycle = 100
        watchdog.on_cycle(view)  # exactly at the limit: still fine
        view.cycle = 101
        with pytest.raises(DeadlockError) as info:
            watchdog.on_cycle(view)
        assert info.value.occupancy  # carries the snapshot
        assert info.value.context["last_commit_cycle"] == 0

    def test_commit_resets_the_clock(self):
        watchdog = Watchdog(limit=100)
        view = _FakeView(straight_2way())
        watchdog.begin_run(view, view.config)
        view.cycle = 90
        view.committed = 1
        watchdog.on_cycle(view)
        view.cycle = 190  # only 100 cycles since the last commit
        watchdog.on_cycle(view)


# ------------------------------------------------------- integration layer


class TestEndToEnd:
    @pytest.mark.parametrize("isa_name", isa_registry.names())
    def test_clean_guarded_runs_every_isa(self, small_build, isa_name):
        """Lockstep co-sim holds for every registered ISA's default binary."""
        descriptor = isa_registry.get(isa_name)
        binary = small_build.all()[descriptor.default_label]
        config = descriptor.config_factories["2way"]()
        result = simulate(binary, config, warm_caches=True, guardrails=True)
        assert result.output == SMALL_PROGRAM_OUTPUT
        report = result.guardrail_report
        assert report["commits_checked"] > 0
        assert report["lockstep"]["golden_halted"]
        assert report["lockstep"]["commits_compared"] == report[
            "commits_checked"
        ]

    @pytest.mark.parametrize("isa_name", isa_registry.names())
    def test_guardrails_do_not_change_cycle_counts(self, small_build,
                                                   isa_name):
        """Acceptance: the guarded run reproduces seed cycle counts exactly."""
        descriptor = isa_registry.get(isa_name)
        binary = small_build.all()[descriptor.default_label]
        config = descriptor.config_factories["2way"]()
        plain = simulate(binary, config, warm_caches=True)
        guarded = simulate(binary, config, warm_caches=True, guardrails=True)
        assert guarded.cycles == plain.cycles
        assert guarded.output == plain.output

    def test_lockstep_catches_corrupted_commit_value(self, small_build):
        """A deliberately corrupted architectural result must diverge."""
        binary = small_build.straight_re
        interp = binary.interpreter(collect_trace=True, trace_values=True)
        assert interp.run(2_000_000).status == "halt"
        # Edit the materialized entries; the engine replays them through
        # the entry-list adapter.
        entries = list(interp.trace)
        victims = [e for e in entries if e.op_class == "alu"]
        victims[len(victims) // 2].dest_value ^= 1 << 7

        from repro.uarch.core import OoOCore

        config = straight_2way()
        suite = build_guardrails(config, binary=binary)
        with pytest.raises(DivergenceError) as info:
            OoOCore(config, guardrails=suite).run(entries)
        err = info.value
        assert err.context["field"] == "dest_value"
        assert err.context["expected"] != err.context["observed"]
        assert err.context["commit_window"]  # replayable window attached

    def test_lockstep_catches_corrupted_control_flow(self, small_build):
        binary = small_build.riscv
        interp = binary.interpreter(collect_trace=True, trace_values=True)
        assert interp.run(2_000_000).status in ("halt", "exit")
        entries = list(interp.trace)
        victim = entries[len(entries) // 2]
        victim.pc ^= 0x40

        from repro.uarch.core import OoOCore

        config = ss_2way()
        suite = build_guardrails(config, binary=binary)
        with pytest.raises(DivergenceError) as info:
            OoOCore(config, guardrails=suite).run(entries)
        assert info.value.context["field"] in ("pc", "next_pc")

    def test_watchdog_trips_on_wedged_rob(self, small_build):
        """Clearing a completed done flag wedges the head; watchdog fires."""
        from repro.guardrails.faultinject import FaultSpec, TimingFaultInjector
        from repro.uarch.core import OoOCore

        binary = small_build.straight_re
        interp = binary.interpreter(collect_trace=True, trace_values=True)
        assert interp.run(2_000_000).status == "halt"
        config = straight_2way(watchdog_cycles=500)
        suite = build_guardrails(
            config, binary=binary,
            injector=TimingFaultInjector(FaultSpec("rob_done_clear", cycle=40)),
        )
        with pytest.raises(DeadlockError) as info:
            OoOCore(config, guardrails=suite).run(interp.trace)
        assert info.value.occupancy["rob"] > 0


# ----------------------------------------------------- errors + crash dumps


class TestStructuredErrors:
    def test_plain_message_is_backward_compatible(self):
        err = SimulationError("boom")
        assert str(err) == "boom"
        assert err.cycle is None and err.context == {}

    def test_context_rendered_in_str(self):
        err = SimulationError("boom", cycle=42, pc=0x1F4,
                              occupancy={"rob": 3, "iq": 1})
        text = str(err)
        assert "boom" in text
        assert "cycle=42" in text
        assert "pc=0x1f4" in text
        assert "rob=3" in text

    def test_as_dict_round_trips_through_json(self):
        err = DeadlockError("wedged", cycle=7, occupancy={"rob": 2},
                            context={"checker": "watchdog"})
        payload = json.loads(json.dumps(err.as_dict()))
        assert payload["type"] == "DeadlockError"
        assert payload["cycle"] == 7
        assert payload["context"]["checker"] == "watchdog"

    def test_guardrail_errors_are_simulation_errors(self):
        for cls in (InvariantViolation, DeadlockError, DivergenceError):
            assert issubclass(cls, SimulationError)


class TestCrashDumps:
    def test_write_crash_dump(self, tmp_path):
        err = InvariantViolation("bad state", cycle=3,
                                 context={"checker": "occupancy"})
        path = write_crash_dump(tmp_path, "fig11", err,
                                extra={"experiment": "fig11"})
        payload = json.loads(open(path).read())
        assert payload["error"]["type"] == "InvariantViolation"
        assert payload["error"]["cycle"] == 3
        assert payload["extra"]["experiment"] == "fig11"

    def test_write_crash_dump_plain_exception(self, tmp_path):
        path = write_crash_dump(tmp_path, "x", ValueError("nope"))
        payload = json.loads(open(path).read())
        assert payload["error"]["type"] == "ValueError"
        assert "nope" in payload["error"]["message"]

    def test_write_manifest(self, tmp_path):
        path = write_manifest(tmp_path, {"failed": ["fig12"]})
        assert json.loads(open(path).read())["failed"] == ["fig12"]


class TestCrashDumpRotation:
    def fill(self, directory, count, max_dumps=None):
        paths = []
        for index in range(count):
            path = write_crash_dump(directory, f"task{index}",
                                    ValueError(f"boom {index}"),
                                    max_dumps=max_dumps)
            os.utime(path, (index, index))  # deterministic age ordering
            paths.append(path)
        return paths

    def test_cap_keeps_newest(self, tmp_path):
        import glob

        self.fill(tmp_path, 6, max_dumps=3)
        dumps = sorted(glob.glob(str(tmp_path / "crash-*.json")))
        assert len(dumps) == 3
        names = " ".join(os.path.basename(p) for p in dumps)
        # The three most recent survive; the oldest were rotated out.
        for kept in ("task3", "task4", "task5"):
            assert kept in names
        for evicted in ("task0", "task1", "task2"):
            assert evicted not in names

    def test_default_cap_via_configure(self, tmp_path):
        from repro.guardrails import crashdump

        previous = crashdump.configure_rotation(2)
        try:
            self.fill(tmp_path, 4)  # no per-call override: global cap
        finally:
            crashdump.configure_rotation(previous)
        import glob

        assert len(glob.glob(str(tmp_path / "crash-*.json"))) == 2

    def test_configure_rejects_nonpositive(self):
        from repro.guardrails import crashdump

        with pytest.raises(ValueError):
            crashdump.configure_rotation(0)

    def test_under_cap_untouched(self, tmp_path):
        import glob

        self.fill(tmp_path, 2, max_dumps=5)
        assert len(glob.glob(str(tmp_path / "crash-*.json"))) == 2


# ------------------------------------------------------- hardened harness


class TestHardenedHarness:
    def test_deadline_raises_on_timeout(self):
        with pytest.raises(RunTimeoutError, match="wall-clock"):
            with deadline(0.05, "tiny budget"):
                time.sleep(2)

    def test_deadline_noop_when_disabled(self):
        with deadline(None):
            pass
        with deadline(0):
            pass


class TestRunnerCacheKey:
    def test_same_name_different_structure_do_not_alias(self):
        """The memo key is the config's structural identity, not its name."""
        clear_cache()
        try:
            small = timed_run("dhrystone", "STRAIGHT-RE+",
                              straight_2way(rob_entries=32))
            large = timed_run("dhrystone", "STRAIGHT-RE+",
                              straight_2way(rob_entries=128))
            assert small is not large
            assert small.cycles != large.cycles
        finally:
            clear_cache()

    def test_guarded_and_unguarded_never_share_an_entry(self):
        clear_cache()
        try:
            plain = timed_run("dhrystone", "STRAIGHT-RE+", straight_2way())
            guarded = timed_run("dhrystone", "STRAIGHT-RE+", straight_2way(),
                                guardrails=True)
            assert plain is not guarded
            assert plain.cycles == guarded.cycles  # zero-overhead fast path
        finally:
            clear_cache()
