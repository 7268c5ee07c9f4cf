"""Property suite: the compiled fast path is invisible to random programs.

Hypothesis generates whole control-flow graphs (the same structured
generator as :mod:`tests.test_fuzz_programs`) and checks the threaded-code
interpreter is observationally identical to the baseline ``step_op`` loop
on every registered ISA: same outputs, same step counts, same final
architectural checkpoint — including partial runs cut off at a random
``max_steps``, which forces the mid-block landing paths.

Seeds are pinned the same way as the fuzz suite: override with
``REPRO_FUZZ_SEED=<seed>`` to explore, keep the default for CI.
"""

import pytest

from hypothesis import given, note, seed, settings, strategies as st

from repro.core.api import build, run_functional
from tests.test_fuzz_programs import FUZZ_SEED, block


def _assert_compiled_invisible(source, max_steps=500_000):
    result = build(source)
    for label, binary in result.all().items():
        base = run_functional(binary, max_steps=max_steps, compiled=False)
        fast = run_functional(binary, max_steps=max_steps, compiled=True)
        assert fast.output == base.output, label
        assert fast.run_result.steps == base.run_result.steps, label


def _random_cfg_program(body, lim):
    return f"""
    int buf[8];
    int helper(int x) {{ return x * 3 - 1; }}
    int main() {{
        int acc = 1;
        int tmp = 0;
        int lim = {lim};
        for (int i = 0; i < lim + 2; i++) {{
            {body}
        }}
        __out(acc);
        __out(buf[2]); __out(buf[5]);
        __out(helper(acc & 127));
        return 0;
    }}
    """


@seed(FUZZ_SEED)
@settings(max_examples=15, deadline=None)
@given(block(), st.integers(min_value=1, max_value=5))
def test_compiled_matches_baseline_on_random_cfgs(body, lim):
    note(f"REPRO_FUZZ_SEED={FUZZ_SEED}")
    _assert_compiled_invisible(_random_cfg_program(body, lim))


def _compact_trace(binary, compiled, values):
    interp = binary.interpreter(collect_trace=True, compiled=compiled,
                                trace_values=values)
    interp.run(500_000)
    trace = interp.trace
    return trace.idx, trace.mem, trace.values, trace.end


@seed(FUZZ_SEED)
@settings(max_examples=10, deadline=None)
@given(block(), st.integers(min_value=1, max_value=5))
def test_compiled_and_baseline_compact_traces_match(body, lim):
    """Block-recorded traces equal the per-op baseline's, field for field.
    With recorded values (the guarded-run mode) both interpreters take the
    baseline loop."""
    note(f"REPRO_FUZZ_SEED={FUZZ_SEED}")
    for label, binary in build(_random_cfg_program(body, lim)).all().items():
        for values in (False, True):
            assert (_compact_trace(binary, True, values)
                    == _compact_trace(binary, False, values)), (label, values)


@pytest.fixture(scope="module")
def partial_run_binaries():
    source = """
    int buf[8];
    int main() {
        int acc = 1;
        int tmp = 0;
        for (int i = 0; i < 24; i++) {
            if ((acc ^ i) & 1) { acc += buf[i & 7] + 3; }
            else { buf[i & 7] = acc - i; tmp += 2; }
            while (tmp > 0) { acc += tmp & 5; tmp -= 2; }
        }
        __out(acc);
        return 0;
    }
    """
    return build(source).all()


@seed(FUZZ_SEED)
@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4000))
def test_partial_runs_stop_on_the_same_instruction(partial_run_binaries,
                                                   max_steps):
    # Random cut points land mid-block; the compiled driver must single-step
    # the block's tail and leave bit-identical state at the boundary.  A
    # trace-collecting run (a sampled segment) must also record the same
    # trace: whole blocks as spans, the tail per op.
    for label, binary in partial_run_binaries.items():
        for collect in (False, True):
            base = binary.interpreter(collect_trace=collect, compiled=False)
            fast = binary.interpreter(collect_trace=collect, compiled=True)
            rb = base.run(max_steps=max_steps)
            rf = fast.run(max_steps=max_steps)
            key = (label, max_steps, collect)
            assert rf.steps == rb.steps, key
            assert rf.status == rb.status, key
            assert fast.checkpoint() == base.checkpoint(), key
            if collect:
                assert fast.trace.idx == base.trace.idx, key
                assert fast.trace.mem == base.trace.mem, key
                assert fast.trace.end == base.trace.end, key
