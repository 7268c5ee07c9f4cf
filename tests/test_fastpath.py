"""Threaded-code fast path: bit-identical execution, plumbing, warming.

The compiled interpreter (:mod:`repro.fastpath`) must be a pure speed
transformation: same outputs, same step counts, same architectural state,
same bookkeeping dicts, for every registered ISA.  These tests pin that
contract, plus the control-descriptor table and the functional-warming
parity the sampled simulator depends on.
"""

import ast

import pytest

from repro import fastpath
from repro import isa as isa_registry
from repro.core.api import build, run_functional
from repro.core.configs import ss_2way, straight_2way
from repro.fastpath import codegen, riscv_gen, straight_gen
from repro.guardrails import LockstepMonitor
from repro.harness.sampling import SampledRunner, SamplingParams, _PredictorWarmer
from repro.uarch.core import OoOCore
from repro.workloads.common import build_workload

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

    def test_env_kill_switch(self, binaries, monkeypatch):
        monkeypatch.setenv("STRAIGHT_FASTPATH", "0")
        assert not fastpath.enabled()
        binary = binaries["STRAIGHT-RE+"]
        assert binary.interpreter()._fast is None
        # The per-instance override still wins over the environment.
        assert binary.interpreter(compiled=True)._fast is not None

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
        # Single instructions run through step_op, so a binary's generated
        # module holds its block functions and nothing else.
        sources = []

        def capture(source, namespace, tag):
            sources.append(source)
            return codegen.compile_namespace(source, namespace, tag)

        for generator in (straight_gen, riscv_gen):
            monkeypatch.setattr(generator, "compile_namespace", capture)
        for label, binary in build_workload(workload).all().items():
            generator = straight_gen if binary.isa == "straight" else riscv_gen
            sources.clear()
            compiled = generator.compile_program(binary.program)
            assert len(sources) == 1, label
            defs = [node for node in ast.walk(ast.parse(sources[0]))
                    if isinstance(node, ast.FunctionDef)]
            assert len(defs) == len(compiled.block_ranges), label


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


def _predictor_state(core):
    """Comparable snapshot of everything functional warming mutates."""
    skip = ("stats",)
    return {
        unit: {k: v for k, v in vars(getattr(core, unit)).items()
               if k not in skip}
        for unit in ("predictor", "btb", "ras")
    }


class TestWarmingParity:
    @pytest.mark.parametrize("label,config_factory", [
        ("SS", ss_2way), ("STRAIGHT-RE+", straight_2way),
    ])
    def test_compiled_and_trace_warming_agree(self, binaries, label,
                                              config_factory):
        # _fast_forward has two implementations: term_at callbacks on the
        # compiled path, trace replay on the baseline path.  Same execution
        # must leave bit-identical predictor / BTB / RAS state.
        binary = binaries[label]
        config = config_factory()
        states = []
        for compiled in (True, False):
            interp = binary.interpreter(compiled=compiled)
            core = OoOCore(config)
            warmer = _PredictorWarmer(core, binary.program.text_base)
            runner = SampledRunner(binary, config, SamplingParams())
            steps = runner._fast_forward(interp, 1500, warmer)
            assert steps == 1500
            states.append(_predictor_state(core))
        assert states[0] == states[1]
