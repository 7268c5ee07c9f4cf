"""RV32IM functional instruction-set simulator.

Shares exact ALU semantics with the STRAIGHT simulator and the IR constant
folder through :func:`repro.ir.passes.constfold.eval_binop`, so compiled
binaries for the two ISAs are bit-comparable on the output channel.

Like the STRAIGHT interpreter, execution runs over the pre-decoded
instruction array (:mod:`repro.riscv.predecode`): one decode per linked
binary, dense-int dispatch, pre-bound evaluators, pre-resolved targets.
The ``bb`` ISA reuses this class wholesale — its block headers decode to
:data:`~repro.riscv.predecode.RK_BB` no-ops.
"""

from repro import fastpath
from repro.common.bitops import wrap32
from repro.common.errors import SimulationError
from repro.common.layout import STACK_TOP, WORD_BYTES
from repro.common.trace import CompactTrace
from repro.riscv.isa import OPCODES
from repro.riscv.linker import ECALL_OUT, ECALL_EXIT
from repro.riscv.predecode import (
    RK_ALU,
    RK_ALU_IMM,
    RK_AUIPC,
    RK_BB,
    RK_BRANCH,
    RK_ECALL,
    RK_JAL,
    RK_JALR,
    RK_LOAD,
    RK_LUI,
    RK_STORE,
    _decode_one,
    decode_program,
    timing_table,
)


class RunResult:
    """Outcome of an interpreter run."""

    def __init__(self, status, steps, output, exit_code=None):
        self.status = status  # 'exit' | 'limit'
        self.steps = steps
        self.output = output
        self.exit_code = exit_code

    def __repr__(self):
        return f"RunResult({self.status}, steps={self.steps})"


class RiscvInterpreter:
    """Executes a linked :class:`~repro.riscv.linker.RiscvProgram`."""

    #: Opcode table used for statistics grouping; RV32IM-derived ISAs
    #: (``bb``) override with their extended table.
    OPCODES = OPCODES

    def __init__(self, program, collect_trace=False, compiled=None,
                 trace_values=False):
        self.program = program
        #: Immutable pre-decoded instruction array, decoded once per linked
        #: binary and shared by every interpreter over the same program
        #: (primary, lockstep golden, fault campaigns).
        self.decoded = decode_program(program)
        self.regs = [0] * 32
        self.regs[2] = STACK_TOP
        self.pc_index = program.index_of_pc(program.entry_pc)
        self.memory = {}
        for offset, word in enumerate(program.data_words):
            self.memory[(program.data_base + offset * WORD_BYTES) // 4] = wrap32(word)
        self.output = []
        self.halted = False
        #: The recorded :class:`~repro.common.trace.CompactTrace`; a trace
        #: with ``values`` also keeps every result (guarded runs need them).
        self.begin_trace(values=trace_values)
        self.collect_trace = collect_trace
        self.exit_code = None
        self.mnemonic_counts = {}
        #: Threaded-code fast path (None: baseline step_op loop).  The
        #: ``compiled`` argument overrides the ``STRAIGHT_FASTPATH`` global
        #: toggle per instance.
        self._fast = None
        use_fast = fastpath.enabled() if compiled is None else compiled
        if use_fast:
            self._fast = fastpath.compiled_for(program, "riscv")

    def begin_trace(self, values=False):
        """Install a fresh trace and start recording into it."""
        self.trace = CompactTrace(self.program, timing_table, values=values)
        self.collect_trace = True

    # -- helpers --------------------------------------------------------------

    def _pc(self):
        return self.program.text_base + self.pc_index * WORD_BYTES

    def _read(self, reg):
        return 0 if reg == 0 else self.regs[reg]

    def _write(self, reg, value):
        if reg != 0:
            self.regs[reg] = wrap32(value)

    def _load_word(self, addr):
        if addr % 4 != 0:
            raise SimulationError(f"pc={self._pc():#x}: misaligned load {addr:#x}")
        return self.memory.get(addr // 4, 0)

    def _store_word(self, addr, value):
        if addr % 4 != 0:
            raise SimulationError(f"pc={self._pc():#x}: misaligned store {addr:#x}")
        self.memory[addr // 4] = wrap32(value)

    # -- execution -----------------------------------------------------------------

    def run(self, max_steps=10_000_000):
        """Run until exit ECALL or ``max_steps``; returns a :class:`RunResult`."""
        if self._fast is not None:
            steps = fastpath.run_compiled(self, max_steps)
        else:
            steps = 0
            decoded = self.decoded
            n_instrs = len(decoded)
            step_op = self.step_op
            while not self.halted and steps < max_steps:
                index = self.pc_index
                if not 0 <= index < n_instrs:
                    raise SimulationError(
                        f"pc out of text segment: {self._pc():#x}")
                step_op(decoded[index])
                steps += 1
        self.trace.end = self.pc_index
        return RunResult(
            "exit" if self.halted else "limit", steps, self.output, self.exit_code
        )

    def step(self, instr):
        """Execute one instruction, updating architectural state.

        ``instr`` must be the instruction at the current ``pc_index`` (the
        contract every caller already honours); the pre-decoded record for it
        is reused when it matches, so external steppers (lockstep golden,
        fault campaigns) ride the same decode-once fast path as :meth:`run`.
        A non-matching ``instr`` (fault campaigns mutate instructions in
        place) falls back to a one-off decode + baseline step, bypassing the
        compiled handlers, which are specialized to the linked binary.
        """
        decoded = self.decoded
        index = self.pc_index
        if 0 <= index < len(decoded) and decoded[index].instr is instr:
            if self._fast is not None:
                self._fast.op_handlers[index](self)
                self.trace.end = self.pc_index
                return
            op = decoded[index]
        else:
            op = _decode_one(index, instr, self.program.text_base)
        self.step_op(op)
        self.trace.end = self.pc_index

    def step_current(self):
        """Execute the instruction at the current ``pc_index``.

        Single-step entry point used by the lockstep golden machine; goes
        through the compiled per-op handlers when the fast path is active so
        co-simulation guards the same generated code production runs use.
        """
        index = self.pc_index
        decoded = self.decoded
        if not 0 <= index < len(decoded):
            raise SimulationError(f"pc out of text segment: {self._pc():#x}")
        if self._fast is not None:
            self._fast.op_handlers[index](self)
        else:
            self.step_op(decoded[index])
        self.trace.end = self.pc_index

    def step_op(self, op):
        """Execute one pre-decoded instruction (the hot path)."""
        kind = op.kind
        pc = op.pc
        regs = self.regs
        next_index = self.pc_index + 1
        taken = False
        mem_addr = None
        value = None       # the architectural write (None: no write)
        store_value = None

        if kind == RK_ALU:
            evaluator, rs1, rs2 = op.operand
            value = evaluator(
                regs[rs1] if rs1 else 0, regs[rs2] if rs2 else 0
            )
        elif kind == RK_ALU_IMM:
            evaluator, rs1, imm = op.operand
            value = evaluator(regs[rs1] if rs1 else 0, imm)
        elif kind == RK_LUI or kind == RK_AUIPC:
            value = op.operand
        elif kind == RK_LOAD:
            rs1, imm = op.operand
            mem_addr = wrap32((regs[rs1] if rs1 else 0) + imm)
            value = self._load_word(mem_addr)
        elif kind == RK_STORE:
            rs1, rs2, imm = op.operand
            mem_addr = wrap32((regs[rs1] if rs1 else 0) + imm)
            self._store_word(mem_addr, regs[rs2] if rs2 else 0)
            store_value = self.memory[mem_addr // 4]
        elif kind == RK_BRANCH:
            evaluator, rs1, rs2 = op.operand
            taken = bool(
                evaluator(regs[rs1] if rs1 else 0, regs[rs2] if rs2 else 0)
            )
            if taken:
                next_index = op.target_index
        elif kind == RK_JAL:
            value = op.operand[0]
            next_index = op.target_index
        elif kind == RK_JALR:
            rs1, imm, value = op.operand[:3]
            target_pc = wrap32((regs[rs1] if rs1 else 0) + imm) & ~1
            next_index = self.program.index_of_pc(target_pc)
        elif kind == RK_ECALL:
            service = regs[17]  # a7
            if service == ECALL_OUT:
                self.output.append(regs[10])  # a0
            elif service == ECALL_EXIT:
                self.halted = True
                self.exit_code = regs[10]
            else:
                raise SimulationError(f"pc={pc:#x}: unknown ecall {service}")
        elif kind == RK_BB:
            pass  # block header: decode-stage marker, no architectural effect
        else:  # pragma: no cover - closed opcode table
            raise SimulationError(f"unimplemented mnemonic {op.mnemonic}")

        dest = op.dest
        if dest is not None and value is not None:
            value = wrap32(value)
            regs[dest] = value
        mnemonic = op.mnemonic
        self.mnemonic_counts[mnemonic] = self.mnemonic_counts.get(mnemonic, 0) + 1
        if self.collect_trace:
            index = op.index
            if taken and next_index == index + 1 and kind == RK_BRANCH:
                index += len(self.decoded) + 1  # the branch's taken twin
            self.trace.record(
                index, mem_addr, regs[dest] if dest is not None else store_value
            )
        self.pc_index = next_index

    # -- checkpointing -------------------------------------------------------------

    def checkpoint(self):
        """Snapshot the complete architectural + bookkeeping state.

        Used by the sampled-simulation runner (window replay, debugging)
        and by resumable campaigns; ``restore`` rewinds exactly — a run
        restarted from a checkpoint is bit-identical to one that never
        stopped.
        """
        return {
            "regs": list(self.regs),
            "pc_index": self.pc_index,
            "memory": dict(self.memory),
            "output": list(self.output),
            "halted": self.halted,
            "exit_code": self.exit_code,
            "mnemonic_counts": dict(self.mnemonic_counts),
        }

    def restore(self, snap):
        """Rewind to a :meth:`checkpoint` snapshot (exact)."""
        self.regs = list(snap["regs"])
        self.pc_index = snap["pc_index"]
        self.memory = dict(snap["memory"])
        self.output = list(snap["output"])
        self.halted = snap["halted"]
        self.exit_code = snap["exit_code"]
        self.mnemonic_counts = dict(snap["mnemonic_counts"])

    # -- statistics ---------------------------------------------------------------

    def class_counts(self):
        """Retired counts grouped the way Fig. 15 groups them."""
        groups = {
            "jump_branch": 0,
            "alu": 0,
            "load": 0,
            "store": 0,
            "rmov": 0,
            "nop": 0,
            "other": 0,
        }
        opcodes = type(self).OPCODES
        for mnemonic, count in self.mnemonic_counts.items():
            op_class = opcodes[mnemonic].op_class
            if op_class in ("branch", "jump"):
                groups["jump_branch"] += count
            elif op_class in ("alu", "mul", "div"):
                groups["alu"] += count
            elif op_class == "load":
                groups["load"] += count
            elif op_class == "store":
                groups["store"] += count
            elif op_class == "nop":
                groups["nop"] += count
            else:
                groups["other"] += count
        return groups
