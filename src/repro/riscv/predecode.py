"""Pre-decoded RV32IM instructions: decode a linked binary exactly once.

The RV32IM counterpart of :mod:`repro.straight.predecode`, built on the
generic machinery in :mod:`repro.isa.predecode`: a dense ``RK_*`` dispatch
kind space plus the static ``_decode_one`` hook, with ALU/compare/branch
evaluators pre-bound, immediates pre-wrapped, branch/jump targets
pre-resolved to instruction indices, link values precomputed, and the
call/return stream annotations resolved statically.

The ``BB`` block-header marker of the BasicBlocker-style ``bb`` ISA decodes
here too (kind :data:`RK_BB`, a functional no-op): ``bb`` programs are
RV32IM programs plus block headers, so they share this decoder and the
:class:`~repro.riscv.interpreter.RiscvInterpreter` hot path outright.
"""

from functools import partial

from repro.common.bitops import wrap32
from repro.common.layout import WORD_BYTES
from repro.ir.passes.constfold import eval_binop, eval_icmp
from repro.isa.predecode import DecodedOp
from repro.isa.predecode import decode_program as _decode_program
from repro.isa.timing import timing_table as _timing_table

#: Dispatch kinds (dense ints; the interpreter dispatches on these instead
#: of hashing mnemonic strings per retired instruction).
RK_ALU = 0       # R-format binop/compare of two registers
RK_ALU_IMM = 1   # I-format binop/compare of a register and an immediate
RK_LUI = 2
RK_AUIPC = 3
RK_LOAD = 4      # LW
RK_STORE = 5     # SW
RK_BRANCH = 6    # conditional B-format branches
RK_JAL = 7
RK_JALR = 8
RK_ECALL = 9
RK_BB = 10       # bb block header: functional no-op

_R_BINOPS = {
    "ADD": "add",
    "SUB": "sub",
    "SLL": "shl",
    "XOR": "xor",
    "SRL": "lshr",
    "SRA": "ashr",
    "OR": "or",
    "AND": "and",
    "MUL": "mul",
    "DIV": "sdiv",
    "DIVU": "udiv",
    "REM": "srem",
    "REMU": "urem",
}
_I_BINOPS = {
    "ADDI": "add",
    "XORI": "xor",
    "ORI": "or",
    "ANDI": "and",
    "SLLI": "shl",
    "SRLI": "lshr",
    "SRAI": "ashr",
}
_BRANCH_PREDS = {
    "BEQ": "eq",
    "BNE": "ne",
    "BLT": "slt",
    "BGE": "sge",
    "BLTU": "ult",
    "BGEU": "uge",
}


def _trace_srcs(*regs):
    """The commit-stream source list: used registers, x0 elided."""
    return tuple(r for r in regs if r)


def _decode_one(index, instr, text_base):
    pc = text_base + index * WORD_BYTES
    m = instr.mnemonic
    rd = instr.rd
    rs1 = instr.rs1
    rs2 = instr.rs2
    # The architectural destination as the commit stream reports it (and as
    # the register write sees it): x0 writes are elided entirely.
    dest = rd if rd not in (None, 0) else None
    srcs = ()
    operand = None
    target_index = None
    target_pc = None
    if m in _R_BINOPS:
        kind = RK_ALU
        operand = (partial(eval_binop, _R_BINOPS[m]), rs1, rs2)
        srcs = _trace_srcs(rs1, rs2)
    elif m in ("SLT", "SLTU"):
        kind = RK_ALU
        operand = (partial(eval_icmp, "slt" if m == "SLT" else "ult"), rs1, rs2)
        srcs = _trace_srcs(rs1, rs2)
    elif m in _I_BINOPS:
        kind = RK_ALU_IMM
        operand = (partial(eval_binop, _I_BINOPS[m]), rs1, wrap32(instr.imm))
        srcs = _trace_srcs(rs1)
    elif m in ("SLTI", "SLTIU"):
        kind = RK_ALU_IMM
        operand = (
            partial(eval_icmp, "slt" if m == "SLTI" else "ult"),
            rs1,
            wrap32(instr.imm),
        )
        srcs = _trace_srcs(rs1)
    elif m == "LUI":
        kind = RK_LUI
        operand = wrap32(instr.imm << 12)
    elif m == "AUIPC":
        kind = RK_AUIPC
        operand = wrap32(pc + (instr.imm << 12))
    elif m == "LW":
        kind = RK_LOAD
        operand = (rs1, instr.imm)
        srcs = _trace_srcs(rs1)
    elif m == "SW":
        kind = RK_STORE
        operand = (rs1, rs2, instr.imm)
        srcs = _trace_srcs(rs1, rs2)
    elif m in _BRANCH_PREDS:
        kind = RK_BRANCH
        operand = (partial(eval_icmp, _BRANCH_PREDS[m]), rs1, rs2)
        target_pc = pc + instr.imm
        target_index = (target_pc - text_base) // WORD_BYTES
        srcs = _trace_srcs(rs1, rs2)
    elif m == "JAL":
        kind = RK_JAL
        target_pc = pc + instr.imm
        target_index = (target_pc - text_base) // WORD_BYTES
        operand = (pc + WORD_BYTES, rd == 1)  # link value, is_call
    elif m == "JALR":
        kind = RK_JALR
        operand = (
            rs1,
            instr.imm,
            pc + WORD_BYTES,           # link value
            rd == 1,                   # is_call
            rd == 0 and rs1 == 1,      # is_return
        )
        srcs = _trace_srcs(rs1)
    elif m == "ECALL":
        kind = RK_ECALL
        srcs = (10, 17)  # a0, a7
    elif m == "BB":
        kind = RK_BB
    else:  # pragma: no cover - the opcode table is closed
        raise ValueError(f"unimplemented mnemonic {m}")
    return DecodedOp(
        index, pc, kind, instr, operand, target_index, target_pc,
        srcs=srcs, dest=dest,
    )


def decode_program(program):
    """The memoized decoded-op array of ``program`` (RV32IM kinds)."""
    return _decode_program(program, _decode_one)


def call_return(op):
    """The ``(is_call, is_return)`` stream annotations of one control op."""
    if op.kind == RK_JAL:
        return op.operand[1], False
    if op.kind == RK_JALR:
        return op.operand[3], op.operand[4]
    return False, False


def timing_flags(op):
    """``(is_call, is_return, is_rmov, is_spadd)`` of one decoded op."""
    is_call, is_return = call_return(op)
    return is_call, is_return, False, False


def timing_table(program):
    """The memoized static timing table of ``program`` (gpr model)."""
    return _timing_table(program, decode_program(program), False,
                         timing_flags)
