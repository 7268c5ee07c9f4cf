"""Engine commit marks against the window sink they replaced.

A sampled run measures each window from two snapshots of cycle and
counters, taken when the segment's commit count reaches the window's first
and last instruction.  An observer sink used to take them from per-commit
events; the engine now takes them itself (``OoOCore.run(..., marks=...)``),
and the segment runs the plain, unobserved path.  The oracle here is that
sink, kept as it was: on recorded segments of every ISA, both must see the
same cycle and counters, with a zero warmup and with windows narrower than
the commit width, where one commit group can reach both marks.
"""

import pytest

from repro.core.configs import ALL_CORES
from repro.harness.sampling import SampledRunner, SamplingParams
from repro.obs.events import ObserverBus, PipelineSink
from repro.uarch.core import OoOCore
from repro.uarch.stats import SimStats
from repro.workloads import build_workload

#: (binary label, core) per ISA; every core's commit width is 3 or 4.
CELLS = [
    ("SS", "SS-2way"), ("SS", "SS-4way"),
    ("STRAIGHT-RE+", "STRAIGHT-2way"), ("STRAIGHT-RE+", "STRAIGHT-4way"),
    ("BB", "BB-2way"), ("BB", "BB-4way"),
]

#: (warmup, window): a zero warmup, windows of 1 to 3 instructions, and a
#: long window.
BOUNDS = [(0, 1), (0, 250), (1, 2), (97, 1), (97, 2), (97, 3), (150, 200)]


class _WindowBoundarySink(PipelineSink):
    """Snapshots cycle + counters at the measured window's boundary commits.

    The sampler's measurement before commit marks, kept as the oracle.
    """

    name = "sampling-boundary"

    def __init__(self, warmup, window):
        self.first = warmup
        self.second = warmup + window
        self.commits = 0
        self.start = None   # (cycle, field snapshot) at commit #warmup
        self.stop = None    # ... at commit #(warmup + window)
        self._stats = None

    def begin_run(self, core, state, sched):
        self.commits = 0
        self.stop = None
        self._stats = core.stats
        # A zero-warmup window starts measuring before the first commit.
        self.start = self._snapshot(0) if self.first == 0 else None

    def _snapshot(self, cycle):
        stats = self._stats
        return cycle, {field: getattr(stats, field)
                       for field in stats.fields
                       if field not in ("cycles", "instructions")}

    def on_commit(self, seq, entry, cycle):
        self.commits += 1
        if self.commits == self.first:
            self.start = self._snapshot(cycle)
        elif self.commits == self.second:
            self.stop = self._snapshot(cycle)


@pytest.fixture(scope="module")
def binaries():
    return build_workload("dhrystone", iterations=3).all()


def _segment(binary, offset, length):
    """A recorded mid-run segment, numbered from 0 as the sampler's are."""
    interp = binary.interpreter()
    interp.run(max_steps=offset)
    interp.begin_trace()
    interp.run(max_steps=length)
    return interp.trace


def _fresh_core(core_name):
    core = OoOCore(ALL_CORES[core_name]())
    core.stats = SimStats()
    core.frontend.stats = core.stats
    return core


def _group_windows(segment, core_name):
    """``(warmup, window)`` pairs whose two marks one commit group reaches,
    for windows of 1 to 3 instructions, found from a run marking every
    commit count."""
    core = _fresh_core(core_name)
    core.run(segment, marks=range(len(segment) + 1))
    cycles = [cycle for cycle, _ in core.engine.marked]
    found = []
    for window in (1, 2, 3):
        for warmup in range(1, len(segment) - window):
            if cycles[warmup] == cycles[warmup + window]:
                found.append((warmup, window))
                break
    return found


class TestMarksMatchTheSink:
    @pytest.mark.parametrize("label,core_name", CELLS)
    def test_same_cycle_and_counters(self, binaries, label, core_name):
        segment = _segment(binaries[label], 1200, 400)
        grouped = _group_windows(segment, core_name)
        assert grouped
        for warmup, window in BOUNDS + grouped:
            sink = _WindowBoundarySink(warmup, window)
            observed = _fresh_core(core_name)
            observed.run(segment, observer=ObserverBus([sink]))
            marked = _fresh_core(core_name)
            marked.run(segment, marks=(warmup, warmup + window))
            assert marked.engine.obs is None
            assert marked.engine.marked == [sink.start, sink.stop], (
                warmup, window)
            assert marked.stats.as_dict() == observed.stats.as_dict()
            if (warmup, window) in grouped:
                assert sink.start[0] == sink.stop[0]

    def test_mark_zero_precedes_the_first_cycle(self, binaries):
        core = _fresh_core("SS-2way")
        core.run(_segment(binaries["SS"], 0, 50), marks=(0,))
        (cycle, counters), = core.engine.marked
        assert cycle == 0
        assert set(counters.values()) == {0}
        assert "cycles" not in counters and "instructions" not in counters

    def test_every_commit_count_and_beyond(self, binaries):
        # One snapshot per reached mark, in mark order, whatever order the
        # marks come in; marks past the last commit are never reached.
        segment = _segment(binaries["STRAIGHT-RE+"], 500, 120)
        core = _fresh_core("STRAIGHT-4way")
        marks = list(range(len(segment) + 3))
        core.run(segment, marks=reversed(marks))
        cycles = [cycle for cycle, _ in core.engine.marked]
        assert len(cycles) == len(segment) + 1
        assert cycles == sorted(cycles)
        assert cycles[-1] < core.stats.cycles
        assert len(set(cycles)) < len(cycles)  # multi-commit groups

    def test_a_run_without_marks_records_none(self, binaries):
        core = _fresh_core("BB-4way")
        core.run(_segment(binaries["BB"], 300, 80))
        assert core.engine.marked == []


class TestSegmentsRunUnobserved:
    def test_segment_engine_has_no_observer(self, binaries):
        runner = SampledRunner(binaries["SS"], ALL_CORES["SS-4way"](),
                               SamplingParams())
        core = OoOCore(runner.config)
        window = runner._simulate_segment(
            core, _segment(binaries["SS"], 800, 2900), 600, False)
        assert core.engine.obs is None
        assert window["instructions"] == 2000
        (start, _), (stop, _) = core.engine.marked
        assert window["cycles"] == stop - start
