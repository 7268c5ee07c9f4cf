"""Threaded-code fast path: bit-identical execution, plumbing, warming.

The compiled interpreter (:mod:`repro.fastpath`) must be a pure speed
transformation: same outputs, same step counts, same architectural state,
same bookkeeping dicts, for every registered ISA.  These tests pin that
contract, plus the control-descriptor table and the functional-warming
parity the sampled simulator depends on.
"""

import ast
import sys
import threading

import pytest

from repro import fastpath
from repro import isa as isa_registry
from repro.core.api import build, run_functional
from repro.core.configs import ss_2way, straight_2way
from repro.fastpath import codegen, riscv_gen, straight_gen
from repro.guardrails import LockstepMonitor
from repro.harness.sampling import SampledRunner, SamplingParams, _PredictorWarmer
from repro.uarch.core import OoOCore
from repro.workloads.common import build_workload, get_workload

#: Branchy program: calls, returns, loops, a divide (uncompiled fallback op),
#: and data-dependent branches so the predictor warming paths get exercised.
SOURCE = """
int tab[16];

int mix(int x, int y) {
    if (x > y) return x - y;
    return y - x + 1;
}

int collatz(int n) {
    int steps = 0;
    while (n != 1 && steps < 60) {
        if (n % 2 == 0) n = n / 2;
        else n = 3 * n + 1;
        steps++;
    }
    return steps;
}

int main() {
    int acc = 0;
    for (int i = 0; i < 16; i++) { tab[i] = i * 13 % 7 + i; }
    for (int i = 0; i < 16; i++) {
        acc += mix(tab[i], tab[15 - i]);
        if (acc % 3 == 0) acc += collatz(i + 5);
    }
    __out(acc);
    __out(collatz(27));
    __out(tab[3] + tab[11]);
    return 0;
}
"""


@pytest.fixture(scope="module")
def binaries():
    return build(SOURCE).all()


def _run_pair(binary, **kw):
    base = run_functional(binary, compiled=False, **kw)
    fast = run_functional(binary, compiled=True, **kw)
    return base, fast


class TestBitIdentity:
    def test_outputs_and_steps_match_per_isa(self, binaries):
        for label, binary in binaries.items():
            base, fast = _run_pair(binary)
            assert fast.output == base.output, label
            assert fast.run_result.steps == base.run_result.steps, label

    def test_architectural_state_matches_per_isa(self, binaries):
        for label, binary in binaries.items():
            base = binary.interpreter(compiled=False)
            fast = binary.interpreter(compiled=True)
            base.run(2_000_000)
            fast.run(2_000_000)
            assert fast.checkpoint() == base.checkpoint(), label

    def test_bookkeeping_dicts_match_iteration_order(self, binaries):
        # The per-block batched bumps must replay first-occurrence order.
        for label, binary in binaries.items():
            base = binary.interpreter(compiled=False)
            fast = binary.interpreter(compiled=True)
            base.run(2_000_000)
            fast.run(2_000_000)
            assert (list(fast.mnemonic_counts.items())
                    == list(base.mnemonic_counts.items())), label
            if hasattr(base, "distance_hist"):
                assert (list(fast.distance_hist.items())
                        == list(base.distance_hist.items())), label

    def test_trace_collection_identical(self, binaries):
        for label, binary in binaries.items():
            base = binary.interpreter(collect_trace=True, compiled=False)
            fast = binary.interpreter(collect_trace=True, compiled=True)
            base.run(2_000_000)
            fast.run(2_000_000)
            assert len(fast.trace) == len(base.trace), label
            fields = type(base.trace[0]).__slots__
            for a, b in zip(base.trace, fast.trace):
                assert ([getattr(a, f) for f in fields]
                        == [getattr(b, f) for f in fields]), label

    @pytest.mark.parametrize("max_steps", [1, 7, 97, 450])
    def test_max_steps_lands_exactly(self, binaries, max_steps):
        # Partial runs must stop on the same instruction (mid-block included).
        for label, binary in binaries.items():
            base = binary.interpreter(compiled=False)
            fast = binary.interpreter(compiled=True)
            rb = base.run(max_steps=max_steps)
            rf = fast.run(max_steps=max_steps)
            assert rf.steps == rb.steps, label
            assert fast.checkpoint() == base.checkpoint(), (label, max_steps)


class TestPlumbing:
    def test_compiled_flag_forces_fast_path(self, binaries):
        for label, binary in binaries.items():
            assert binary.interpreter(compiled=True)._fast is not None, label
            assert binary.interpreter(compiled=False)._fast is None, label

    def test_compile_is_memoized_per_program(self, binaries):
        for label, binary in binaries.items():
            first = fastpath.compiled_for(binary.program, binary.isa)
            assert fastpath.compiled_for(binary.program, binary.isa) is first

    def test_every_registered_isa_compiles(self, binaries):
        labels = {d.default_label for d in isa_registry.descriptors()}
        assert labels <= set(binaries)
        for label in labels:
            assert binaries[label].interpreter(compiled=True)._fast is not None

    def test_value_recording_and_golden_machines_run_uncompiled(self,
                                                                binaries):
        # Block functions record no results: guarded runs, fault campaigns
        # and the lockstep golden machine single-step through step_op.
        for label, binary in binaries.items():
            interp = binary.interpreter(collect_trace=True, compiled=True,
                                        trace_values=True)
            assert interp._fast is None, label
            assert LockstepMonitor(binary).golden._fast is None, label


class TestGeneratedModule:
    @pytest.mark.parametrize("workload", ["dhrystone", "coremark"])
    def test_one_function_per_basic_block(self, workload, monkeypatch):
        # A block compiles on its own: each compiled leader holds one
        # function, generated from _emit_block's source for that block.
        sources = []
        compile_namespace = codegen.compile_namespace

        def capture(source, namespace, tag):
            sources.append(source)
            return compile_namespace(source, namespace, tag)

        monkeypatch.setattr(codegen, "compile_namespace", capture)
        for label, binary in build_workload(workload).all().items():
            generator = straight_gen if binary.isa == "straight" else riscv_gen
            decoded = generator.decode_program(binary.program)
            fast = generator.prepare(binary.program)
            leaders = [i for i, n in enumerate(fast.block_lens) if n]
            assert fast.block_funcs == [None] * fast.n, label
            for start in leaders:
                sources.clear()
                fn = fast.enter(start, 1)
                w = codegen.SourceWriter()
                generator._emit_block(w, decoded, start,
                                      start + fast.block_lens[start])
                assert sources == [w.text()], (label, start)
                defs = [node.name for node in ast.walk(ast.parse(sources[0]))
                        if isinstance(node, ast.FunctionDef)]
                assert defs == [f"_b{start}"], (label, start)
                assert fn is fast.block_funcs[start], (label, start)
                assert fn.__name__ == f"_b{start}", (label, start)
            compiled = [i for i, fn in enumerate(fast.block_funcs)
                        if fn is not None]
            assert compiled == leaders, label

    @pytest.mark.parametrize("workload", ["dhrystone", "coremark"])
    def test_static_min_mrp_is_the_largest_forward(self, workload):
        # min_mrp comes from a static scan before any block is generated; it
        # must equal the largest forwarded distance the emitter reports.
        for label, binary in build_workload(workload).all().items():
            if binary.isa != "straight":
                continue
            decoded = straight_gen.decode_program(binary.program)
            fast = straight_gen.prepare(binary.program)
            forwards = [
                straight_gen._emit_block(codegen.SourceWriter(), decoded,
                                         start, start + length)
                for start, length in enumerate(fast.block_lens) if length
            ]
            assert fast.min_mrp == max(forwards), label
            assert fast.min_mrp > 0, label


#: Cut points for the tiering differential: early, mid-run, and past the end.
TIERING_CUTS = (97, 1000, 50_000_000)


def _tiering_run(binary, compiled, mode, max_steps):
    """Everything one run shows: steps, architectural state, the statistics
    dicts in their insertion order, the trace and the warming callbacks.

    ``mode`` is ``run`` (trace-less ``run()``), ``trace`` (trace-collecting
    ``run()``) or ``warming`` (:func:`repro.fastpath.run_compiled_warming`;
    an uncompiled interpreter single-steps and reports the same transfers).
    """
    interp = binary.interpreter(collect_trace=mode == "trace",
                                compiled=compiled)
    notes = []
    if mode != "warming":
        steps = interp.run(max_steps).steps
    elif compiled is False:
        term_at = fastpath.compiled_for(binary.program, binary.isa).term_at
        steps = 0
        while not interp.halted and steps < max_steps:
            index = interp.pc_index
            interp.step_op(interp.decoded[index])
            steps += 1
            if term_at[index] is not None:
                notes.append((term_at[index], interp.pc_index))
    else:
        steps = fastpath.run_compiled_warming(
            interp, max_steps, lambda term, nxt: notes.append((term, nxt)))
    return {
        "steps": steps,
        "state": interp.checkpoint(),
        "mnemonic_counts": list(interp.mnemonic_counts.items()),
        "distance_hist": list(getattr(interp, "distance_hist", {}).items()),
        "idx": list(interp.trace.idx),
        "mem": list(interp.trace.mem),
        "notes": notes,
    }


def _compiled_leaders(binary):
    fast = fastpath.compiled_for(binary.program, binary.isa)
    return {i for i, fn in enumerate(fast.block_funcs) if fn is not None}


class TestTiering:
    """The default policy compiles a block once its entry count, shared by
    every run over the binary, reaches ``HOT_THRESHOLD``: often in the middle
    of a run.  Every run, cold, mixed or hot, must match the baseline."""

    @pytest.mark.parametrize("mode", ["run", "trace", "warming"])
    def test_mid_run_compiles_match_baseline(self, mode):
        source = get_workload("dhrystone").source(1)
        for max_steps in TIERING_CUTS:
            # A fresh build: entry counts start at zero.
            for label, binary in build(source).all().items():
                expected = _tiering_run(binary, False, mode, max_steps)
                entry = binary.interpreter(compiled=False).pc_index
                mid_run = 0
                for _ in range(fastpath.HOT_THRESHOLD + 1):
                    before = _compiled_leaders(binary)
                    observed = _tiering_run(binary, None, mode, max_steps)
                    assert observed == expected, (label, mode, max_steps)
                    if _compiled_leaders(binary) - before - {entry}:
                        mid_run += 1
                assert mid_run, (label, mode, max_steps)

    def test_concurrent_runs_share_counts_safely(self):
        # Serve batch threads may run one binary at once.  Racing entry
        # counts only delay a compile, and a block compiled twice installs an
        # equivalent function: every run stays bit-identical to the baseline.
        binary = build(get_workload("dhrystone").source(1)).all()["STRAIGHT-RE+"]
        expected = _tiering_run(binary, False, "run", 50_000_000)
        mismatches = []

        def worker():
            for _ in range(fastpath.HOT_THRESHOLD // 4 + 2):
                if _tiering_run(binary, None, "run", 50_000_000) != expected:
                    mismatches.append(threading.get_ident())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches
        fast = fastpath.compiled_for(binary.program, binary.isa)
        compiled = _compiled_leaders(binary)
        assert compiled
        for start in compiled:
            assert fast.block_funcs[start].__name__ == f"_b{start}"

    def test_default_policy_compiles_nothing_until_hot(self):
        binary = build(SOURCE).all()["STRAIGHT-RE+"]
        interp = binary.interpreter()
        assert interp._fast is not None
        assert interp._hot_threshold == fastpath.HOT_THRESHOLD
        assert binary.interpreter(compiled=True)._hot_threshold == 1
        assert not _compiled_leaders(binary)
        interp.run(1)
        assert not _compiled_leaders(binary)


class TestControlDescriptors:
    def test_term_at_marks_exactly_the_control_ops(self, binaries):
        for label, binary in binaries.items():
            interp = binary.interpreter(compiled=True)
            decoded = interp.decoded
            term_at = interp._fast.term_at
            assert len(term_at) == len(decoded), label
            for op in decoded:
                term = term_at[op.index]
                if op.op_class in ("branch", "jump"):
                    pc, is_cond, is_call, is_return, fallthrough = term
                    assert pc == op.pc, label
                    assert is_cond == (op.op_class == "branch"), label
                    assert fallthrough == op.index + 1, label
                    assert not (is_call and is_return), label
                else:
                    assert term is None, (label, op.index)


def _plain(value):
    """``value`` with slotted objects (TAGE's tables) turned into dicts."""
    if isinstance(value, list):
        return [_plain(item) for item in value]
    slots = getattr(type(value), "__slots__", None)
    if slots:
        return {name: _plain(getattr(value, name)) for name in slots}
    return value


def _predictor_state(core):
    """Comparable snapshot of everything functional warming mutates."""
    skip = ("stats",)
    return {
        unit: {k: _plain(v) for k, v in vars(getattr(core, unit)).items()
               if k not in skip}
        for unit in ("predictor", "btb", "ras")
    }


def _warm_both_ways(binary, config):
    """Predictor state after the same 1500-instruction fast-forward on the
    compiled path (term_at callbacks) and the baseline (trace replay)."""
    states = []
    for compiled in (True, False):
        interp = binary.interpreter(compiled=compiled)
        core = OoOCore(config)
        warmer = _PredictorWarmer(core, binary.program.text_base)
        runner = SampledRunner(binary, config, SamplingParams())
        steps = runner._fast_forward(interp, 1500, warmer)
        assert steps == 1500
        states.append(_predictor_state(core))
    return states


class TestWarmingParity:
    @pytest.mark.parametrize("label,config_factory", [
        ("SS", ss_2way), ("STRAIGHT-RE+", straight_2way),
    ])
    def test_compiled_and_trace_warming_agree(self, binaries, label,
                                              config_factory):
        # _fast_forward has two implementations: term_at callbacks on the
        # compiled path, trace replay on the baseline path.  Same execution
        # must leave bit-identical predictor / BTB / RAS state.
        states = _warm_both_ways(binaries[label], config_factory())
        assert states[0] == states[1]

    @pytest.mark.parametrize("label,config_factory", [
        ("SS", ss_2way), ("STRAIGHT-RE+", straight_2way),
    ])
    def test_compiled_and_trace_warming_agree_on_tage(self, binaries, label,
                                                      config_factory):
        states = _warm_both_ways(binaries[label],
                                 config_factory(predictor="tage"))
        assert states[0] == states[1]
        assert states[0]["predictor"]["predictions"] > 0

    @pytest.mark.parametrize("predictor", ["gshare", "tage"])
    @pytest.mark.parametrize("label,config_factory", [
        ("SS", ss_2way), ("STRAIGHT-RE+", straight_2way),
    ])
    def test_warming_makes_the_fetch_stages_writes(self, binaries, label,
                                                   config_factory, predictor):
        # Fetch predicts every trace position once, in program order, and
        # the warmer claims to make exactly fetch's predictor, BTB and RAS
        # writes without its lookups.  A timing run and warming over the
        # same trace must then leave equal state.
        binary = binaries[label]
        config = config_factory(predictor=predictor)
        interp = binary.interpreter(collect_trace=True)
        interp.run(max_steps=50_000_000)
        timed = OoOCore(config)
        timed.run(interp.trace)
        warmed = OoOCore(config)
        warmer = _PredictorWarmer(warmed, binary.program.text_base)
        for entry in interp.trace:
            warmer.note_entry(entry)
        state = _predictor_state(warmed)
        assert state == _predictor_state(timed)
        assert state["predictor"]["predictions"] > 0
        assert any(tag is not None for tag in state["btb"]["tags"])
