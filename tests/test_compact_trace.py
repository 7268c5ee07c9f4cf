"""The compact trace and the static timing table it indexes.

Covers what the trace-digest and SimStats oracles in
``tests/test_engine_oracles.py`` cannot reach directly: the taken twins of
branches to their own fall-through, the entry-list adapter (one engine
input path), cache warming against the per-instruction walk it replaced,
the pending-cycle pruning on cores that never skip, and lockstep's demand
for recorded values.
"""

import pytest

from repro import isa as isa_registry
from repro.core.api import build
from repro.core.configs import ALL_CORES
from repro.guardrails import build_guardrails
from repro.obs import ObserverBus
from repro.riscv import RiscvInterpreter
from repro.riscv import link_program as link_riscv
from repro.riscv import parse_assembly as parse_riscv
from repro.riscv import startup_stub as riscv_stub
from repro.straight import StraightInterpreter, link_program, parse_assembly
from repro.straight import startup_stub
from repro.uarch.core import OoOCore
from tests.conftest import SMALL_PROGRAM

# A loop whose BEZ/beq targets its own fall-through: taken on even
# iterations, not taken on odd ones.  Only the recorded taken twin tells
# the two apart.
STRAIGHT_SELF_BRANCH = """
main:
    ADDI [0] 6
    NOP
main.loop:
    ANDI [2] 1
    BEZ [1] main.next
main.next:
    ADDI [4] -1
    RMOV [1]
    BNZ [1] main.loop
    OUT [2]
    HALT
"""

RISCV_SELF_BRANCH = """
main:
    addi t0, zero, 6
main.loop:
    andi t1, t0, 1
    beq t1, zero, main.next
main.next:
    addi t0, t0, -1
    bne t0, zero, main.loop
    addi a0, t0, 0
    addi a7, zero, 1
    ecall
    jalr zero, ra, 0
"""


def _straight_program():
    return link_program([startup_stub(), parse_assembly(STRAIGHT_SELF_BRANCH)])


def _riscv_program():
    return link_riscv([riscv_stub(), parse_riscv(RISCV_SELF_BRANCH)])


def _record(make, program, compiled, values=False):
    interp = make(program, collect_trace=True, compiled=compiled,
                  trace_values=values)
    assert interp.run(10_000).status in ("halt", "exit")
    return interp.trace


@pytest.fixture(scope="module")
def small_binaries():
    binaries = build(SMALL_PROGRAM).all()
    return {d.name: binaries[d.default_label] for d in isa_registry.descriptors()}


class TestTakenTwins:
    @pytest.mark.parametrize("make, program, branch", [
        (StraightInterpreter, _straight_program, "BEZ"),
        (RiscvInterpreter, _riscv_program, "BEQ"),
    ])
    def test_outcome_survives_the_index_stream(self, make, program, branch):
        program = program()
        traces = [_record(make, program, compiled) for compiled in (False, True)]
        assert traces[0].idx == traces[1].idx
        assert traces[0].mem == traces[1].mem
        n = len(program.instrs)
        outcomes = [entry.taken for entry in traces[0]
                    if entry.mnemonic == branch]
        # Six iterations, counter 6..1: even counts branch, odd fall through.
        assert outcomes == [True, False, True, False, True, False]
        twins = [index for index in traces[0].idx if index > n]
        assert len(twins) == 3
        table = traces[0].table
        assert all(table.ops[index].fall_pc == -1 for index in twins)

    def test_engine_sees_the_taken_twins(self):
        trace = _record(StraightInterpreter, _straight_program(), True)
        recorded = OoOCore(ALL_CORES["STRAIGHT-2way"]()).run(trace)
        adapted = OoOCore(ALL_CORES["STRAIGHT-2way"]()).run(list(trace))
        assert recorded.as_dict() == adapted.as_dict()
        # Every BEZ and BNZ reaches the predictor, as does the stub's JAL.
        assert recorded.branches == 12 + 1


class TestAdapter:
    @pytest.mark.parametrize("isa_name", isa_registry.names())
    def test_entry_list_replays_like_the_recorded_trace(self, small_binaries,
                                                        isa_name):
        """The one engine input path: a materialized entry list goes through
        the adapter and times exactly like the trace it came from."""
        binary = small_binaries[isa_name]
        config = isa_registry.get(isa_name).config_factories["2way"]()
        interp = binary.interpreter(collect_trace=True)
        interp.run(1_000_000)
        recorded = OoOCore(config).run(interp.trace, warm=True)
        entries = list(interp.trace)
        adapted = OoOCore(config).run(entries, warm=True)
        assert adapted.as_dict() == recorded.as_dict()

    def test_views_of_an_adapted_trace_are_the_entries(self, small_binaries):
        interp = small_binaries["riscv"].interpreter(collect_trace=True)
        interp.run(1_000_000)
        entries = list(interp.trace)
        core = OoOCore(ALL_CORES["SS-2way"]())
        adapted = core.compact(entries)
        assert len(adapted) == len(entries)
        assert adapted[5] is entries[5]
        assert list(adapted)[-1] is entries[-1]


def _walk(hierarchy, trace):
    """The per-instruction warming walk ``OoOCore.warm_caches`` replaced."""
    for entry in trace:
        hierarchy.access_instr(entry.pc)
        if entry.mem_addr is not None:
            hierarchy.access_data(entry.mem_addr,
                                  is_store=entry.op_class == "store")


def _cache_state(hierarchy):
    levels = [hierarchy.l1i, hierarchy.l1d, hierarchy.l2, hierarchy.l3]
    sets = [[list(s) for s in level.sets] if level is not None else None
            for level in levels]
    prefetcher = hierarchy.prefetcher
    streams = (None if prefetcher is None
               else (list(prefetcher.recent), prefetcher.issued))
    return sets, streams


class TestWarmCaches:
    @pytest.mark.parametrize("isa_name", isa_registry.names())
    def test_matches_the_per_instruction_walk(self, small_binaries, isa_name):
        """Skipping repeats of the previous I-cache line leaves every level's
        contents, LRU order and the prefetcher exactly as touching every
        instruction did."""
        binary = small_binaries[isa_name]
        config = isa_registry.get(isa_name).config_factories["4way"]()
        interp = binary.interpreter(collect_trace=True)
        interp.run(1_000_000)
        core = OoOCore(config)
        core.warm_caches(interp.trace)
        reference = config.build_hierarchy()
        _walk(reference, interp.trace)
        assert _cache_state(core.hierarchy) == _cache_state(reference)
        assert core.hierarchy.l1i.hits == core.hierarchy.l1i.misses == 0


class TestSchedulerPruning:
    def test_bb_run_keeps_few_pending_cycles(self, small_binaries):
        """bb cores rarely skip.  Pending cycles are the keys of the state's
        ``events`` and ``ready_buckets``, which leave in the cycle they
        name, so a finished run holds none, skipping or not; the cycle
        count is pinned."""
        interp = small_binaries["bb"].interpreter(collect_trace=True)
        interp.run(1_000_000)
        core = OoOCore(ALL_CORES["BB-4way"]())
        stats = core.run(interp.trace)
        assert stats.cycles == 2739
        state = core.engine.state
        assert state.events == {}
        assert state.ready_buckets == {}

    def test_schedule_drops_passed_cycles(self, small_binaries, monkeypatch):
        """A cycle leaves ``events`` and ``ready_buckets`` before the clock
        passes it, so no passed cycle is ever pending."""
        from repro.uarch.scheduler import EventScheduler

        interp = small_binaries["bb"].interpreter(collect_trace=True)
        interp.run(1_000_000)
        core = OoOCore(ALL_CORES["BB-4way"]())
        advance = EventScheduler.advance
        checked = []

        def advance_checked(sched):
            state = core.engine.state
            pending = [*state.events, *state.ready_buckets]
            assert all(at > sched.cycle for at in pending), (
                sched.cycle, pending)
            checked.append(len(pending))
            advance(sched)

        monkeypatch.setattr(EventScheduler, "advance", advance_checked)
        stats = core.run(interp.trace)
        assert stats.cycles == len(checked) == 2739
        assert core.engine.sched.skipped_cycles == 0
        assert max(checked) > 0


class TestLockstepNeedsValues:
    def test_trace_without_values_is_refused(self, small_binaries):
        binary = small_binaries["straight"]
        interp = binary.interpreter(collect_trace=True)
        interp.run(1_000_000)
        config = ALL_CORES["STRAIGHT-2way"]()
        suite = build_guardrails(config, binary=binary)
        with pytest.raises(ValueError, match="trace_values"):
            OoOCore(config).run(interp.trace, observer=ObserverBus([suite]))
