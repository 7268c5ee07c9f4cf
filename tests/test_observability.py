"""Observability subsystem tests: event bus, Kanata logs, attribution, profiler.

Covers the PR-5 acceptance criteria: observed runs are cycle-identical to
plain runs, attribution buckets conserve ``issue_width x cycles`` on shipped
workloads for both ISAs, the Kanata writer round-trips through the bundled
parser (golden fixture + property test), and the stats surface exports the
buckets deterministically.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import InvariantViolation
from repro.core.api import simulate
from repro.core.configs import TABLE1
from repro.guardrails import StallAttributionChecker
from repro.obs import (
    ATTRIBUTION_BUCKETS,
    HotRegionProfiler,
    KanataWriter,
    ObserverBus,
    PipelineSink,
    RecordingSink,
    StallAttributionAccountant,
    parse_kanata,
)
from repro.workloads import build_workload

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Dedicated golden-trace program (do NOT reuse conftest's SMALL_PROGRAM:
#: the golden Kanata fixture pins this exact source + core).
GOLDEN_SOURCE = """
int main() {
    int acc = 0;
    for (int i = 0; i < 6; i++) {
        if (i % 2 == 0) acc += i * 3;
        else acc -= 1;
    }
    __out(acc);
    return 0;
}
"""


def _sim(binary, config, sinks):
    return simulate(binary, config, warm_caches=True,
                    observer=ObserverBus(sinks))


# ---------------------------------------------------------------------------
# Event bus
# ---------------------------------------------------------------------------


class TestObserverBus:
    def test_empty_bus_inactive(self):
        bus = ObserverBus()
        assert not bus.active

    def test_fanout_skips_unimplemented_hooks(self):
        class OnlyCommit(PipelineSink):
            def on_commit(self, seq, entry, cycle):
                pass

        bus = ObserverBus([OnlyCommit()])
        assert bus._commit and not bus._fetch and not bus._cycle

    def test_engine_drops_empty_bus(self, small_build):
        config = TABLE1["SS-2way"]()
        binary = small_build.all()["SS"]
        plain = simulate(binary, config, warm_caches=True)
        observed = simulate(binary, config, warm_caches=True,
                            observer=ObserverBus())
        assert observed.cycles == plain.cycles

    def test_recording_sink_lifecycle_order(self, small_build):
        config = TABLE1["STRAIGHT-2way"]()
        binary = small_build.all()["STRAIGHT-RE+"]
        rec = RecordingSink()
        result = _sim(binary, config, [rec])
        commits = rec.of_kind("commit")
        assert len(commits) == result.stats.instructions
        # Per-instruction lifecycle cycles are monotone through the pipe.
        milestones = {}
        for kind, cycle, seq, _detail in rec.records:
            milestones.setdefault(seq, {})[kind] = cycle
        assert milestones
        for seq, stages in milestones.items():
            if "commit" not in stages:
                continue  # still in flight at the end of the trace window
            assert stages["fetch"] <= stages["dispatch"] <= stages["commit"]
            if "issue" in stages:
                assert stages["dispatch"] <= stages["issue"]
                assert stages["issue"] < stages["commit"]

    def test_observed_cycles_bit_identical(self, small_build):
        for core, label in (("SS-2way", "SS"),
                            ("STRAIGHT-2way", "STRAIGHT-RE+")):
            config = TABLE1[core]()
            binary = small_build.all()[label]
            plain = simulate(binary, config, warm_caches=True)
            # Instruction-granular sink: idle skipping stays on.
            kanata = _sim(binary, config, [KanataWriter()])
            # Cycle-granular sink: idle skipping forced off.
            attributed = _sim(binary, config, [StallAttributionAccountant()])
            assert kanata.cycles == plain.cycles
            assert attributed.cycles == plain.cycles


# ---------------------------------------------------------------------------
# Stall attribution
# ---------------------------------------------------------------------------


class TestAttribution:
    @pytest.mark.parametrize("workload", ["dhrystone", "coremark"])
    @pytest.mark.parametrize("core,label", [
        ("SS-2way", "SS"),
        ("STRAIGHT-2way", "STRAIGHT-RE+"),
    ])
    def test_conservation_on_shipped_workloads(self, workload, core, label):
        iterations = 3 if workload == "dhrystone" else 1
        binary = build_workload(workload, iterations).all()[label]
        config = TABLE1[core]()
        accountant = StallAttributionAccountant()
        result = _sim(binary, config, [accountant])
        assert accountant.conserved()
        assert accountant.cycles_observed == result.cycles
        report = accountant.report()
        assert report["slots_charged"] == report["slots_total"] == (
            config.issue_width * result.cycles
        )

    def test_rmov_bucket_zero_on_ss(self, small_build):
        accountant = StallAttributionAccountant()
        _sim(small_build.all()["SS"], TABLE1["SS-2way"](), [accountant])
        assert accountant.buckets["slots_rmov_overhead"] == 0

    def test_re_plus_cuts_rmov_overhead(self, small_build):
        config = TABLE1["STRAIGHT-2way"]()
        raw, re_plus = StallAttributionAccountant(), StallAttributionAccountant()
        _sim(small_build.all()["STRAIGHT-RAW"], config, [raw])
        _sim(small_build.all()["STRAIGHT-RE+"], config, [re_plus])
        assert raw.buckets["slots_rmov_overhead"] > \
            re_plus.buckets["slots_rmov_overhead"]

    def test_buckets_exported_to_stats(self, small_build):
        accountant = StallAttributionAccountant()
        result = _sim(small_build.all()["SS"], TABLE1["SS-2way"](),
                      [accountant])
        data = result.stats.as_dict()
        for bucket in ATTRIBUTION_BUCKETS:
            assert data[bucket] == accountant.buckets[bucket]
        assert data["slots_retiring"] > 0

    def test_buckets_zero_without_accountant(self, small_build):
        result = simulate(small_build.all()["SS"], TABLE1["SS-2way"](),
                          warm_caches=True)
        for bucket in ATTRIBUTION_BUCKETS:
            assert result.stats.as_dict()[bucket] == 0

    def test_checker_wired_by_guardrailed_observed_run(self, small_build):
        accountant = StallAttributionAccountant()
        result = simulate(small_build.all()["SS"], TABLE1["SS-2way"](),
                          warm_caches=True, guardrails=True,
                          observer=ObserverBus([accountant]))
        assert result.guardrail_report is not None
        assert "stall-attribution" in result.guardrail_report["checkers"]
        assert accountant.conserved()

    def test_guarded_run_leaves_the_callers_bus_alone(self, small_build):
        """The suite runs on a bus of its own, after the caller's sinks."""
        accountant = StallAttributionAccountant()
        bus = ObserverBus([accountant])
        result = simulate(small_build.all()["SS"], TABLE1["SS-2way"](),
                          warm_caches=True, guardrails=True, observer=bus)
        assert result.guardrail_report is not None
        assert bus.sinks == [accountant]
        assert accountant.conserved()

    def test_checker_rejects_bad_charges(self):
        class BrokenAccountant:
            issue_width = 2
            cycles_observed = 1
            total_charged = 3
            last_cycle_charges = {"slots_retiring": 3}
            buckets = {"slots_retiring": 3}

            def conserved(self):
                return False

        class View:
            cycle = 7

            def occupancy(self):
                return {}

        checker = StallAttributionChecker(BrokenAccountant())
        with pytest.raises(InvariantViolation):
            checker.on_cycle(View())
        with pytest.raises(InvariantViolation):
            checker.end_run(View())


# ---------------------------------------------------------------------------
# Kanata writer + parser
# ---------------------------------------------------------------------------


class _Entry:
    def __init__(self, pc, mnemonic):
        self.pc = pc
        self.mnemonic = mnemonic


class TestKanata:
    def test_round_trip_all_binaries(self, small_build):
        for core, label in (("SS-2way", "SS"),
                            ("STRAIGHT-2way", "STRAIGHT-RAW"),
                            ("STRAIGHT-4way", "STRAIGHT-RE+")):
            writer = KanataWriter()
            _sim(small_build.all()[label], TABLE1[core](), [writer])
            assert writer.dropped == 0
            assert parse_kanata(writer.render()) == writer.canonical_records()

    def test_golden_log(self):
        from repro.core.api import build

        writer = KanataWriter()
        binary = build(GOLDEN_SOURCE).all()["STRAIGHT-RE+"]
        _sim(binary, TABLE1["STRAIGHT-2way"](), [writer])
        with open(os.path.join(FIXTURES, "golden_kanata.log")) as handle:
            golden = handle.read()
        assert writer.render() == golden
        assert parse_kanata(golden) == writer.canonical_records()

    def test_writer_writes_path(self, small_build, tmp_path):
        path = tmp_path / "run.kanata"
        writer = KanataWriter(path=str(path))
        _sim(small_build.all()["SS"], TABLE1["SS-2way"](), [writer])
        text = path.read_text()
        assert text.startswith("Kanata\t0004\n")
        assert parse_kanata(text) == writer.canonical_records()

    def test_max_insns_cap(self, small_build):
        writer = KanataWriter(max_insns=10)
        _sim(small_build.all()["SS"], TABLE1["SS-2way"](), [writer])
        assert len(writer.canonical_records()) == 10
        assert writer.dropped > 0
        parse_kanata(writer.render())  # capped log still well-formed

    @pytest.mark.parametrize("text,message", [
        ("bogus\n", "missing 'Kanata' header"),
        ("Kanata\t0004\nI\t0\t0\t0\n", "before 'C='"),
        ("Kanata\t0004\nC=\t0\nL\t5\t0\tx\n", "not opened"),
        ("Kanata\t0004\nC=\t0\nI\t0\t0\t0\nE\t0\t0\tF\n", "never started"),
        ("Kanata\t0004\nC=\t0\nI\t0\t0\t0\nS\t0\t0\tF\n", "unterminated"),
        ("Kanata\t0004\nC=\t0\nZ\t0\n", "unknown record kind"),
    ])
    def test_parser_rejects_malformed(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_kanata(text)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, data):
        """Synthetic lifecycle streams round-trip write -> parse exactly."""
        writer = KanataWriter()
        n = data.draw(st.integers(min_value=1, max_value=12), label="n")
        cycle = 0
        for seq in range(n):
            cycle += data.draw(st.integers(0, 3), label="fetch_gap")
            entry = _Entry(pc=0x1000 + 4 * seq, mnemonic=f"OP{seq % 5}")
            writer.on_fetch(seq, entry, cycle)
            if data.draw(st.booleans(), label="mispredict"):
                writer.on_mispredict(seq, entry, cycle)
            if not data.draw(st.booleans(), label="dispatched"):
                continue  # still in the front-end pipe at end of run
            dispatch = cycle + 1 + data.draw(st.integers(0, 4), label="d")
            tags = data.draw(
                st.lists(st.integers(0, max(0, seq - 1)), max_size=2,
                         unique=True),
                label="tags") if seq else []
            writer.on_dispatch(seq, entry, dispatch, tags)
            commit = dispatch
            if data.draw(st.booleans(), label="issued"):
                issue = dispatch + data.draw(st.integers(0, 4), label="i")
                writer.on_issue(seq, entry, issue, issue + 1)
                complete = issue + 1 + data.draw(st.integers(0, 3), label="x")
                writer.on_complete(seq, complete)
                commit = complete
            if data.draw(st.booleans(), label="squashed"):
                writer.on_squash(seq, commit, "mem-order")
            if data.draw(st.booleans(), label="committed"):
                commit += data.draw(st.integers(0, 3), label="c")
                writer.on_commit(seq, entry, commit)
        assert parse_kanata(writer.render()) == writer.canonical_records()


# ---------------------------------------------------------------------------
# Hot-region profiler
# ---------------------------------------------------------------------------


class TestProfiler:
    def test_commit_totals_and_regions(self, small_build):
        binary = small_build.all()["STRAIGHT-RE+"]
        profiler = HotRegionProfiler(program=binary.program)
        result = _sim(binary, TABLE1["STRAIGHT-2way"](), [profiler])
        report = profiler.report(top=5)
        assert report["total_commits"] == result.stats.instructions
        assert sum(r["commits"] for r in report["regions"]) == \
            report["total_commits"]
        names = {row["region"] for row in report["regions"]}
        assert any(name and name.startswith("fib") for name in names)
        top_row = report["hot_pcs"][0]
        assert top_row["commits"] >= report["hot_pcs"][-1]["commits"]
        assert top_row["avg_latency"] > 0

    def test_locate_maps_source_lines(self, small_build):
        binary = small_build.all()["STRAIGHT-RE+"]
        profiler = HotRegionProfiler(program=binary.program)
        _sim(binary, TABLE1["STRAIGHT-2way"](), [profiler])
        pc = max(profiler.commits, key=profiler.commits.get)
        index, region, _line = profiler.locate(pc)
        assert index == binary.program.index_of_pc(pc)
        assert region is not None

    def test_degrades_without_program(self, small_build):
        profiler = HotRegionProfiler()
        _sim(small_build.all()["SS"], TABLE1["SS-2way"](), [profiler])
        assert profiler.locate(0x1000) == (None, None, None)
        report = profiler.report(top=3)
        assert report["total_commits"] > 0
        assert all(row["region"] is None for row in report["hot_pcs"])
        assert profiler.text(top=3)  # renders without regions


# ---------------------------------------------------------------------------
# Stats export determinism + sweep cache keys
# ---------------------------------------------------------------------------


class TestStatsAndCache:
    def test_stats_export_deterministic(self, small_build):
        config = TABLE1["SS-2way"]()
        binary = small_build.all()["SS"]
        first = simulate(binary, config, warm_caches=True).stats.as_dict()
        second = simulate(binary, config, warm_caches=True).stats.as_dict()
        assert json.dumps(first) == json.dumps(second)
        # Declaration order: the attribution buckets appear as one
        # contiguous group, in ATTRIBUTION_BUCKETS order.
        keys = list(first)
        positions = [keys.index(bucket) for bucket in ATTRIBUTION_BUCKETS]
        assert positions == sorted(positions)
        assert positions[-1] - positions[0] == len(ATTRIBUTION_BUCKETS) - 1

        # Nested cache tables are key-sorted at every level.
        def check(node):
            if isinstance(node, dict):
                assert list(node) == sorted(node)
                for child in node.values():
                    check(child)
        check(first["cache"])

    def test_timing_key_separates_attribution_runs(self, small_build):
        from repro.harness.sweep import SweepTask, result_key

        config = TABLE1["SS-2way"]()
        binary = small_build.all()["SS"]
        plain = result_key(SweepTask("t", "small", config=config), binary)
        attributed = result_key(
            SweepTask("t", "small", config=config, attribution=True), binary)
        assert plain != attributed

    def test_sweep_task_carries_attribution_payload(self):
        from repro.harness.experiments import attribution_task
        from repro.harness.sweep import execute_task

        config = TABLE1["SS-2way"]()
        task = attribution_task("dhrystone", "SS", config)
        assert task.attribution
        payload = execute_task(task)
        report = payload["attribution"]
        assert report["conserved"]
        assert report["slots_charged"] == report["slots_total"]
        assert sum(report["buckets"].values()) == report["slots_charged"]
