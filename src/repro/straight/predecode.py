"""Pre-decoded STRAIGHT instructions: decode a linked binary exactly once.

The :class:`~repro.isa.predecode.DecodedOp` record and the memoizing
:func:`repro.isa.predecode.decode_program` driver are ISA-neutral and live
in :mod:`repro.isa.predecode`; this module contributes only the STRAIGHT
half — the dense ``K_*`` dispatch kind space and the static
``_decode_one`` hook that maps each :class:`~repro.straight.isa.SInstr`
onto it, with the ALU/compare evaluator pre-bound, immediates pre-wrapped
and branch/jump targets pre-resolved to instruction indices.
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
K_ALU = 0        # binop of two sources
K_ALU_IMM = 1    # binop of one source and a pre-wrapped immediate
K_CMP = 2        # compare of two sources
K_CMP_IMM = 3    # compare of one source and a pre-wrapped immediate
K_LUI = 4
K_RMOV = 5
K_LOAD = 6
K_STORE = 7
K_BEZ = 8
K_BNZ = 9
K_JUMP = 10      # J
K_CALL = 11      # JAL
K_RET = 12       # JR
K_SPADD = 13
K_OUT = 14
K_NOP = 15
K_HALT = 16

_ALU_BINOPS = {
    "ADD": "add",
    "SUB": "sub",
    "AND": "and",
    "OR": "or",
    "XOR": "xor",
    "SLL": "shl",
    "SRL": "lshr",
    "SRA": "ashr",
    "MUL": "mul",
    "DIV": "sdiv",
    "DIVU": "udiv",
    "REM": "srem",
    "REMU": "urem",
    "ADDI": "add",
    "ANDI": "and",
    "ORI": "or",
    "XORI": "xor",
    "SLLI": "shl",
    "SRLI": "lshr",
    "SRAI": "ashr",
}

_CMP_OPS = {"SLT": "slt", "SLTU": "ult", "SLTI": "slt", "SLTUI": "ult"}


def _decode_one(index, instr, text_base):
    pc = text_base + index * WORD_BYTES
    mnemonic = instr.mnemonic
    operand = None
    target_index = None
    target_pc = None
    if mnemonic in _ALU_BINOPS:
        evaluator = partial(eval_binop, _ALU_BINOPS[mnemonic])
        if len(instr.srcs) == 2:
            kind = K_ALU
            operand = evaluator
        else:
            kind = K_ALU_IMM
            operand = (evaluator, wrap32(instr.imm))
    elif mnemonic in _CMP_OPS:
        evaluator = partial(eval_icmp, _CMP_OPS[mnemonic])
        if len(instr.srcs) == 2:
            kind = K_CMP
            operand = evaluator
        else:
            kind = K_CMP_IMM
            operand = (evaluator, wrap32(instr.imm))
    elif mnemonic == "LUI":
        kind = K_LUI
        operand = wrap32(instr.imm << 12)
    elif mnemonic == "RMOV":
        kind = K_RMOV
    elif mnemonic == "LD":
        kind = K_LOAD
        operand = instr.imm
    elif mnemonic == "ST":
        kind = K_STORE
        operand = instr.imm * WORD_BYTES
    elif mnemonic in ("BEZ", "BNZ"):
        kind = K_BEZ if mnemonic == "BEZ" else K_BNZ
        target_index = index + instr.imm
        target_pc = pc + instr.imm * WORD_BYTES
    elif mnemonic == "J":
        kind = K_JUMP
        target_index = index + instr.imm
        target_pc = pc + instr.imm * WORD_BYTES
    elif mnemonic == "JAL":
        kind = K_CALL
        target_index = index + instr.imm
        target_pc = pc + instr.imm * WORD_BYTES
        operand = pc + WORD_BYTES  # the link value
    elif mnemonic == "JR":
        kind = K_RET
    elif mnemonic == "SPADD":
        kind = K_SPADD
        operand = instr.imm
    elif mnemonic == "OUT":
        kind = K_OUT
    elif mnemonic == "NOP":
        kind = K_NOP
    elif mnemonic == "HALT":
        kind = K_HALT
    else:  # pragma: no cover - the opcode table is closed
        raise ValueError(f"unimplemented mnemonic {mnemonic}")
    return DecodedOp(index, pc, kind, instr, operand, target_index, target_pc)


def decode_program(program):
    """The memoized decoded-op array of ``program`` (STRAIGHT kinds)."""
    return _decode_program(program, _decode_one)


def timing_flags(op):
    """``(is_call, is_return, is_rmov, is_spadd)`` of one decoded op."""
    kind = op.kind
    return kind == K_CALL, kind == K_RET, kind == K_RMOV, kind == K_SPADD


def timing_table(program):
    """The memoized static timing table of ``program`` (distance model)."""
    return _timing_table(program, decode_program(program), True,
                         timing_flags)
