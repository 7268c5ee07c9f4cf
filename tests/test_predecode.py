"""Pre-decoded hot path: decode-once sharing and bit-exact equivalence."""

from repro.core.api import build
from repro.harness.bench import _seed_style_run
from repro.straight.predecode import decode_program

SOURCE = """
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int a[32];
int main() {
    int s = 0;
    for (int i = 0; i < 32; i++) { a[i] = i * 7 - 3; }
    for (int i = 0; i < 32; i += 3) { s += a[i]; }
    s += fib(9);
    s = s * 2 - s / 3;
    __out(s);
    return 0;
}
"""


def _binary():
    return build(SOURCE).all()["STRAIGHT-RE+"]


class TestDecodeProgram:
    def test_decode_is_memoized_on_the_program(self):
        binary = _binary()
        assert decode_program(binary.program) is decode_program(binary.program)

    def test_interpreters_share_one_decode(self):
        binary = _binary()
        first = binary.interpreter()
        second = binary.interpreter()
        assert first.decoded is second.decoded
        assert len(first.decoded) == len(binary.program.instrs)

    def test_decoded_records_mirror_the_instructions(self):
        binary = _binary()
        for op, instr in zip(decode_program(binary.program),
                             binary.program.instrs):
            assert op.instr is instr
            assert op.mnemonic == instr.mnemonic
            assert op.op_class == instr.op_class
            assert op.srcs == instr.srcs


class TestEquivalence:
    def test_fast_path_matches_per_step_decode_reference(self):
        """run() and the seed-style decode-every-step loop agree exactly."""
        binary = _binary()
        fast = binary.interpreter()
        result = fast.run(10_000_000)
        slow = binary.interpreter()
        steps = _seed_style_run(slow, 10_000_000)
        assert result.status == "halt" and slow.halted
        assert result.steps == steps
        assert result.output == slow.output
        assert fast.regs == slow.regs
        assert fast.memory == slow.memory
        assert fast.sp == slow.sp
        assert fast.seq == slow.seq

    def test_step_api_matches_run(self):
        """External steppers (lockstep, fault injection) stay bit-exact."""
        binary = _binary()
        reference = binary.interpreter(collect_trace=True, trace_values=True)
        reference.run(10_000_000)
        stepped = binary.interpreter(collect_trace=True, trace_values=True)
        instrs = binary.program.instrs
        while not stepped.halted:
            stepped.step(instrs[stepped.pc_index])
        assert stepped.output == reference.output
        assert len(stepped.trace) == len(reference.trace)
        for mine, ref in zip(stepped.trace, reference.trace):
            assert (mine.pc, mine.mnemonic, mine.dest, mine.srcs,
                    mine.dest_value, mine.next_pc, mine.taken) == \
                   (ref.pc, ref.mnemonic, ref.dest, ref.srcs,
                    ref.dest_value, ref.next_pc, ref.taken)

    def test_trace_is_control_matches_op_class(self):
        binary = _binary()
        interp = binary.interpreter(collect_trace=True)
        interp.run(10_000_000)
        assert interp.trace
        for entry in interp.trace:
            assert entry.is_control == (entry.op_class in ("branch", "jump"))
