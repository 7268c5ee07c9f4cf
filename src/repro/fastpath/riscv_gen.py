"""RV32IM/bb block compiler: DecodedOp arrays -> specialized closures.

The gpr-side counterpart of :mod:`repro.fastpath.straight_gen`, sharing the
expression templates and dispatch tables of :mod:`repro.fastpath.codegen`.
Named registers make the generated code even simpler than STRAIGHT's: reads
and writes are literal ``regs[k]`` subscripts, ``x0`` reads fold to the
literal ``0`` at compile time, and writes to ``x0`` disappear (matching the
interpreter's elided-write semantics).  Within a block, the last write to
each register is *forwarded* as a Python local, so dependent chains
(address generation feeding a load, a compare feeding the block-ending
branch) never round-trip the register file — the superinstruction effect.

``bb`` binaries compile here too: their block-header markers decode to
``RK_BB`` functional no-ops, which cost one batched mnemonic bump and zero
generated instructions.

Bit-identity contract: identical to the STRAIGHT generator — architectural
state, output channel, recorded traces and statistics dicts (insertion order
included) match the baseline ``step_op`` loop on every non-erroring run;
error paths raise the same exceptions with statistics batching as the only
observable difference.
"""

from repro.fastpath.blocks import partition
from repro.fastpath.codegen import (
    MASK,
    CompiledProgram,
    SourceWriter,
    base_namespace,
    binop_expr,
    block_spans,
    compile_namespace,
    control_descriptors,
    emit_record,
    emit_record_address,
    icmp_cond,
    icmp_expr,
)
from repro.riscv.linker import ECALL_EXIT, ECALL_OUT
from repro.riscv.predecode import (
    _BRANCH_PREDS,
    _I_BINOPS,
    _R_BINOPS,
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
    call_return,
    decode_program,
)

TERMINATORS = frozenset((RK_BRANCH, RK_JAL, RK_JALR, RK_ECALL))

_MEM_KINDS = frozenset((RK_LOAD, RK_STORE))


def _read(fwd, rs):
    """Register-read expression: ``x0`` folds to 0, recent writes forward."""
    if not rs:
        return 0
    return fwd.get(rs, f"regs[{rs}]")


def _addr_expr(w, fwd, rs1, imm):
    """Emit the effective-address computation into ``_a``."""
    base = _read(fwd, rs1)
    if imm == 0:
        w.line(f"_a = {base}")
    else:
        w.line(f"_a = ({base} + {imm}) & {MASK}")


def _emit_op(w, fwd, op, k, pc, in_block=False):
    """Emit one op's computation; returns (value_expr, bool_name, mem).

    Inside a block a load or store also hands its address to the trace's
    recorder ``ma`` when one was passed.
    """
    kind = op.kind
    m = op.mnemonic
    value = None
    cond_name = None
    mem_addr = None
    if kind == RK_ALU or kind == RK_ALU_IMM:
        if kind == RK_ALU:
            _, rs1, rs2 = op.operand
            a, b = _read(fwd, rs1), _read(fwd, rs2)
        else:
            _, rs1, b = op.operand  # pre-wrapped immediate
            a = _read(fwd, rs1)
        if op.dest is None:
            return None, None, None  # pure compute into x0: nothing observable
        name = _R_BINOPS.get(m) or _I_BINOPS.get(m)
        if name is not None:
            expr = binop_expr(name, a, b)
        elif m in ("SLT", "SLTI"):
            w.line(f"_t{k} = {icmp_cond('slt', a, b)}")
            cond_name = f"_t{k}"
            expr = f"(1 if _t{k} else 0)"
        else:  # SLTU / SLTIU
            expr = icmp_expr("ult", a, b)
        if isinstance(expr, str) and expr == str(a):
            value = a  # identity fold (ADDI rd, rs, 0 and friends)
        else:
            w.line(f"v{k} = {expr}")
            value = f"v{k}"
    elif kind == RK_LUI or kind == RK_AUIPC:
        value = op.operand
    elif kind == RK_LOAD:
        rs1, imm = op.operand
        _addr_expr(w, fwd, rs1, imm)
        w.line("if _a & 3:")
        w.indent()
        w.line(f"_mis('load', _a, {pc})")
        w.dedent()
        if in_block:
            emit_record_address(w)
        mem_addr = "_a"
        if op.dest is not None:
            w.line(f"v{k} = mem.get(_a >> 2, 0)")
            value = f"v{k}"
    elif kind == RK_STORE:
        rs1, rs2, imm = op.operand
        _addr_expr(w, fwd, rs1, imm)
        w.line("if _a & 3:")
        w.indent()
        w.line(f"_mis('store', _a, {pc})")
        w.dedent()
        if in_block:
            emit_record_address(w)
        w.line(f"mem[_a >> 2] = {_read(fwd, rs2)}")
        mem_addr = "_a"
    elif kind == RK_BRANCH:
        _, rs1, rs2 = op.operand
        pred = _BRANCH_PREDS[m]
        w.line(f"_t = {icmp_cond(pred, _read(fwd, rs1), _read(fwd, rs2))}")
        cond_name = "_t"
    elif kind == RK_JAL:
        value = op.operand[0] if op.dest is not None else None
    elif kind == RK_JALR:
        rs1, imm, link = op.operand[0], op.operand[1], op.operand[2]
        base = _read(fwd, rs1)
        if imm == 0:
            w.line(f"_tp = {base} & 4294967294")
        else:
            w.line(f"_tp = ({base} + {imm}) & 4294967294")
        w.line("_ni = _iop(_tp)")
        value = link if op.dest is not None else None
    elif kind == RK_ECALL:
        w.line(f"_svc = {_read(fwd, 17)}")
        w.line(f"if _svc == {ECALL_OUT}:")
        w.indent()
        w.line(f"it.output.append({_read(fwd, 10)})")
        w.dedent()
        w.line(f"elif _svc == {ECALL_EXIT}:")
        w.indent()
        w.line("it.halted = True")
        w.line(f"it.exit_code = {_read(fwd, 10)}")
        w.dedent()
        w.line("else:")
        w.indent()
        w.line(f"_badcall(_svc, {pc})")
        w.dedent()
    elif kind == RK_BB:
        pass  # block header: decode-stage marker, no architectural effect
    else:  # pragma: no cover - closed opcode table
        raise ValueError(f"unimplemented kind {kind} ({m})")
    return value, cond_name, mem_addr


def _write_dest(w, fwd, op, value):
    """Emit the architectural write and update the forwarding map.

    Only *stable* value expressions (int literals and single-assignment
    locals) enter the forwarding map.  An identity-folded ``regs[k]``
    expression must not forward: the source register may be overwritten
    later in the block, which would alias the forwarded read.
    """
    if op.dest is None or value is None:
        return
    w.line(f"regs[{op.dest}] = {value}")
    if isinstance(value, int) or not value.startswith("regs["):
        fwd[op.dest] = value
    else:
        fwd.pop(op.dest, None)


def _block_prologue(w, ops, signature):
    w.line(f"def {signature}:")
    w.indent()
    w.line("regs = it.regs")
    if any(op.kind in _MEM_KINDS for op in ops):
        w.line("mem = it.memory")


def _emit_block(w, decoded, start, end):
    ops = decoded[start:end]
    _block_prologue(w, ops, f"_b{start}(it, ma=None)")
    fwd = {}
    counts = {}
    last_cond = None
    for k, op in enumerate(ops):
        value, cond_name, _ = _emit_op(w, fwd, op, k, op.pc, in_block=True)
        _write_dest(w, fwd, op, value)
        counts[op.mnemonic] = counts.get(op.mnemonic, 0) + 1
        last_cond = cond_name
    if counts:
        w.line("_mc = it.mnemonic_counts")
        for mnemonic, count in counts.items():
            w.line(f"_mc[{mnemonic!r}] = _mc.get({mnemonic!r}, 0) + {count}")
    last = ops[-1]
    if last.kind == RK_BRANCH:
        w.line(f"if {last_cond}:")
        w.indent()
        w.line(f"it.pc_index = {last.target_index}")
        w.dedent()
        w.line("else:")
        w.indent()
        w.line(f"it.pc_index = {end}")
        w.dedent()
    elif last.kind == RK_JAL:
        w.line(f"it.pc_index = {last.target_index}")
    elif last.kind == RK_JALR:
        w.line("it.pc_index = _ni")
    else:  # ECALL or plain fall-through
        w.line(f"it.pc_index = {end}")
    w.dedent()
    w.line()


def _emit_handler(w, op, n):
    """Emit one `_h{index}` single-op handler (trace-recording).

    ``n`` is the program length: a taken branch to its own fall-through
    records its taken twin ``n + 1 + index`` (see
    :mod:`repro.isa.timing`).
    """
    i = op.index
    pc = op.pc
    kind = op.kind
    _block_prologue(w, (op,), f"_h{i}(it)")
    fwd = {}  # handlers never forward: they read the live register file
    value, cond_name, mem_addr = _emit_op(w, fwd, op, 0, pc)
    next_index = str(i + 1)
    recorded = str(i)
    if kind == RK_BRANCH:
        next_index = f"({op.target_index} if {cond_name} else {i + 1})"
        if op.target_index == i + 1:
            recorded = f"({n + 1 + i} if {cond_name} else {i})"
    elif kind == RK_JAL:
        next_index = str(op.target_index)
    elif kind == RK_JALR:
        next_index = "_ni"
    _write_dest(w, {}, op, value)
    mnemonic = op.mnemonic
    w.line("_mc = it.mnemonic_counts")
    w.line(f"_mc[{mnemonic!r}] = _mc.get({mnemonic!r}, 0) + 1")
    if op.dest is not None:
        dest_value = value if value is not None else f"regs[{op.dest}]"
    elif kind == RK_STORE:
        dest_value = _read({}, op.operand[1])  # the stored (wrapped) word
    else:
        dest_value = "None"
    emit_record(w, recorded, mem_addr, dest_value)
    w.line(f"it.pc_index = {next_index}")
    w.dedent()
    w.line()


def compile_program(program):
    """Compile ``program`` into a :class:`CompiledProgram` (one exec)."""
    decoded = decode_program(program)
    n = len(decoded)
    ranges = partition(decoded, TERMINATORS)
    w = SourceWriter()
    for start, end in ranges:
        _emit_block(w, decoded, start, end)
    for op in decoded:
        _emit_handler(w, op, n)
    namespace = base_namespace(program)
    compile_namespace(w.text(), namespace, f"riscv:{program.text_base:#x}")
    block_funcs = [None] * n
    block_lens = [0] * n
    for start, end in ranges:
        block_funcs[start] = namespace[f"_b{start}"]
        block_lens[start] = end - start
    handlers = [namespace[f"_h{op.index}"] for op in decoded]
    term_at = control_descriptors(decoded, call_return)
    return CompiledProgram(
        n, block_funcs, block_lens, handlers,
        min_mrp=0, block_ranges=tuple(ranges), term_at=term_at,
        block_spans=block_spans(decoded, ranges),
    )
