"""STRAIGHT block compiler: DecodedOp arrays -> specialized Python closures.

Generates, per linked STRAIGHT binary, one module of Python source holding

* ``_b{start}(it, ma=None)`` — a function per basic block executing the
  whole block (the run / fast-forward hot path); a trace-collecting run
  passes ``ma``, which receives every load/store address in order;
* ``_h{index}`` — a function per instruction executing exactly one op and
  recording it into ``it.trace`` when collecting (``step()``, lockstep
  golden, guarded runs, boundary landing).

The generated code preserves the baseline interpreter's semantics exactly:

* source reads resolve ``producer = seq - distance`` with the same
  negative-distance and stale-register diagnostics (distance checking
  stays a run-time flag — the generated code tests one pre-loaded local);
* destination writes hit ``regs[(seq + k) % max_rp]`` with pre-baked
  offsets; every value written is already masked to 32 bits;
* ALU/compare algebra is inlined via :func:`repro.fastpath.codegen.binop_expr`
  (divide/remainder call the pre-bound ``eval_binop`` partials, keeping
  the baseline's corner semantics bit-exact);
* ``mnemonic_counts`` / ``distance_hist`` updates are batched per block in
  first-occurrence order, reproducing the baseline dicts — insertion order
  included — on every non-erroring run.

Superinstruction fusion happens structurally: a producer inside the block
is *forwarded* as a Python local (so RMOV chains and address-generation
feeding a load collapse to local reads), and a compare feeding the
block-ending BEZ/BNZ exports its raw boolean, so the branch tests one
native condition instead of re-comparing an int.  Forwarding a distance
``d`` is only architecturally transparent while ``max_rp >= d`` (no later
op can alias the producer's register inside the window); the largest
forwarded distance is recorded as :attr:`CompiledProgram.min_mrp` and
interpreters with a smaller circular file decline the fast path.
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
)
from repro.straight.predecode import (
    _ALU_BINOPS,
    _CMP_OPS,
    K_ALU,
    K_ALU_IMM,
    K_BEZ,
    K_BNZ,
    K_CALL,
    K_CMP,
    K_CMP_IMM,
    K_HALT,
    K_JUMP,
    K_LOAD,
    K_LUI,
    K_OUT,
    K_RET,
    K_RMOV,
    K_SPADD,
    K_STORE,
    decode_program,
)

TERMINATORS = frozenset(
    (K_BEZ, K_BNZ, K_JUMP, K_CALL, K_RET, K_HALT)
)

_MEM_KINDS = frozenset((K_LOAD, K_STORE))


class _BlockState:
    """Per-block codegen state: value forwarding and batched bookkeeping."""

    def __init__(self):
        #: offset-in-block -> value expression (a local name or int literal)
        self.values = {}
        #: offset-in-block -> bool-local name, for compare ops only
        self.bools = {}
        self.hist = {}      # distance -> count, first-occurrence order
        self.counts = {}    # mnemonic -> count, first-occurrence order
        self.max_forward = 0


def _read_source(w, state, op, k, slot, distance, checked):
    """Emit one source read; returns its value expression.

    ``k`` is the op's offset in the block (0 for handlers, which pass
    ``checked='handler'`` to get inline histogram updates).  Distance
    histogram updates are batched into ``state.hist`` for blocks and
    emitted inline for handlers.
    """
    if distance == 0:
        return 0
    handler = checked == "handler"
    if not handler:
        state.hist[distance] = state.hist.get(distance, 0) + 1
        back = distance - k
        if back <= 0:
            # Intra-block producer: forward its value through the local.
            state.max_forward = max(state.max_forward, distance)
            return state.values[k - distance]
    pc = op.pc
    name = f"a{k}_{slot}"
    w.line(f"_p = seq - {distance - k}")
    w.line("if _p < 0:")
    w.indent()
    w.line(f"_neg(it, {distance}, {pc})")
    w.dedent()
    w.line("_q = _p % mrp")
    w.line("if chk and ws[_q] != _p:")
    w.indent()
    w.line(f"_stale(it, {distance}, _p, _q, {pc})")
    w.dedent()
    if handler:
        w.line(f"_dh[{distance}] = _dh.get({distance}, 0) + 1")
    w.line(f"{name} = regs[_q]")
    return name


def _emit_value(w, state, op, k, srcs, in_block=False):
    """Emit the op's computation; returns (value_expr, mem_addr_local).

    ``value_expr`` is what gets written to the destination register (an
    int literal or an assigned-once local/source name, always a wrapped
    word).  ``mem_addr_local`` names the effective-address local of a load
    or store (None otherwise); inside a block it is also handed to the
    trace's address recorder ``ma`` when one was passed.
    """
    kind = op.kind
    pc = op.pc
    mem_addr = None
    if kind == K_ALU:
        name = _ALU_BINOPS[op.mnemonic]
        w.line(f"v{k} = {binop_expr(name, srcs[0], srcs[1])}")
        value = f"v{k}"
    elif kind == K_ALU_IMM:
        name = _ALU_BINOPS[op.mnemonic]
        imm = op.operand[1]
        expr = binop_expr(name, srcs[0], imm)
        if expr == str(srcs[0]):
            value = srcs[0]  # additive/shift identity folded away
        else:
            w.line(f"v{k} = {expr}")
            value = f"v{k}"
    elif kind == K_CMP or kind == K_CMP_IMM:
        pred = _CMP_OPS[op.mnemonic]
        rhs = srcs[1] if kind == K_CMP else op.operand[1]
        w.line(f"_t{k} = {icmp_cond(pred, srcs[0], rhs)}")
        w.line(f"v{k} = 1 if _t{k} else 0")
        state.bools[k] = f"_t{k}"
        value = f"v{k}"
    elif kind == K_LOAD:
        offset = op.operand
        if offset == 0:
            w.line(f"_a = {srcs[0]}")
        else:
            w.line(f"_a = ({srcs[0]} + {offset}) & {MASK}")
        w.line("if _a & 3:")
        w.indent()
        w.line(f"_mis('load', _a, {pc})")
        w.dedent()
        if in_block:
            emit_record_address(w)
        w.line(f"v{k} = mem.get(_a >> 2, 0)")
        value = f"v{k}"
        mem_addr = "_a"
    elif kind == K_STORE:
        offset = op.operand
        if offset == 0:
            w.line(f"_a = {srcs[1]}")
        else:
            w.line(f"_a = ({srcs[1]} + {offset}) & {MASK}")
        w.line("if _a & 3:")
        w.indent()
        w.line(f"_mis('store', _a, {pc})")
        w.dedent()
        if in_block:
            emit_record_address(w)
        w.line(f"mem[_a >> 2] = {srcs[0]}")
        value = srcs[0]  # "store value is returned" (paper §III-A)
        mem_addr = "_a"
    elif kind == K_RMOV:
        value = srcs[0]
    elif kind == K_LUI:
        value = op.operand
    elif kind == K_CALL:
        value = op.operand  # the link value
    elif kind == K_SPADD:
        w.line(f"_sp{k} = (it.sp + {op.operand}) & {MASK}")
        w.line(f"it.sp = _sp{k}")
        value = f"_sp{k}"
    elif kind == K_OUT:
        w.line(f"it.output.append({srcs[0]})")
        value = srcs[0]
    elif kind == K_HALT:
        w.line("it.halted = True")
        value = 0
    else:  # K_BEZ / K_BNZ / K_JUMP / K_RET / K_NOP write zero
        value = 0
    return value, mem_addr


def _emit_dest(w, k, value):
    if k == 0:
        w.line("_q = seq % mrp")
        w.line(f"regs[_q] = {value}")
        w.line("ws[_q] = seq")
    else:
        w.line(f"_q = (seq + {k}) % mrp")
        w.line(f"regs[_q] = {value}")
        w.line(f"ws[_q] = seq + {k}")


def _block_needs(ops, start):
    """(needs_check, needs_mem): which prologue locals the block uses."""
    needs_check = False
    needs_mem = False
    for k, op in enumerate(ops):
        if op.kind in _MEM_KINDS:
            needs_mem = True
        for distance in op.srcs:
            if distance > k:  # at least one out-of-block read
                needs_check = True
    return needs_check, needs_mem


def _branch_condition(state, op, k, src_expr):
    """The native taken-condition of a block-ending BEZ/BNZ.

    When the branch source is a compare executed earlier in the same block
    the raw boolean local is reused (the fused compare+branch
    superinstruction); otherwise the wrapped word is tested against zero.
    """
    distance = op.srcs[0]
    j = k - distance
    if distance and j >= 0 and j in state.bools:
        t = state.bools[j]
        return f"not {t}" if op.kind == K_BEZ else t
    test = "==" if op.kind == K_BEZ else "!="
    return f"{src_expr} {test} 0"


def _emit_block(w, decoded, start, end):
    """Emit one `_b{start}` whole-block function; returns max forward dist."""
    ops = decoded[start:end]
    needs_check, needs_mem = _block_needs(ops, start)
    state = _BlockState()
    w.line(f"def _b{start}(it, ma=None):")
    w.indent()
    w.line("seq = it.seq")
    w.line("regs = it.regs")
    w.line("ws = it.written_seq")
    w.line("mrp = it.max_rp")
    if needs_check:
        w.line("chk = it.check_distances")
    if needs_mem:
        w.line("mem = it.memory")
    last_cond = None
    last_srcs = []
    for k, op in enumerate(ops):
        srcs = [
            _read_source(w, state, op, k, slot, d, "block")
            for slot, d in enumerate(op.srcs)
        ]
        value, _ = _emit_value(w, state, op, k, srcs, in_block=True)
        state.values[k] = value
        _emit_dest(w, k, value)
        state.counts[op.mnemonic] = state.counts.get(op.mnemonic, 0) + 1
        last_srcs = srcs
        if op.kind in (K_BEZ, K_BNZ):
            last_cond = _branch_condition(state, op, k, srcs[0])
    w.line(f"it.seq = seq + {len(ops)}")
    if state.counts:
        w.line("_mc = it.mnemonic_counts")
        for mnemonic, count in state.counts.items():
            w.line(f"_mc[{mnemonic!r}] = _mc.get({mnemonic!r}, 0) + {count}")
    if state.hist:
        w.line("_dh = it.distance_hist")
        for distance, count in state.hist.items():
            w.line(f"_dh[{distance}] = _dh.get({distance}, 0) + {count}")
    last = ops[-1]
    if last.kind in (K_BEZ, K_BNZ):
        w.line(f"if {last_cond}:")
        w.indent()
        w.line(f"it.pc_index = {last.target_index}")
        w.dedent()
        w.line("else:")
        w.indent()
        w.line(f"it.pc_index = {end}")
        w.dedent()
    elif last.kind in (K_JUMP, K_CALL):
        w.line(f"it.pc_index = {last.target_index}")
    elif last.kind == K_RET:
        w.line(f"it.pc_index = _iop({last_srcs[0]})")
    else:  # HALT or plain fall-through
        w.line(f"it.pc_index = {end}")
    w.dedent()
    w.line()
    return state.max_forward


def _emit_handler(w, op, n):
    """Emit one `_h{index}` single-op handler (trace-recording).

    ``n`` is the program length: a taken branch to its own fall-through
    records its taken twin ``n + 1 + index`` (see
    :mod:`repro.isa.timing`).
    """
    i = op.index
    kind = op.kind
    state = _BlockState()
    has_reads = any(d for d in op.srcs)
    w.line(f"def _h{i}(it):")
    w.indent()
    w.line("seq = it.seq")
    w.line("regs = it.regs")
    w.line("ws = it.written_seq")
    w.line("mrp = it.max_rp")
    if has_reads:
        w.line("chk = it.check_distances")
        w.line("_dh = it.distance_hist")
    if kind in _MEM_KINDS:
        w.line("mem = it.memory")
    srcs = [
        _read_source(w, state, op, 0, slot, d, "handler")
        for slot, d in enumerate(op.srcs)
    ]
    value, mem_addr = _emit_value(w, state, op, 0, srcs)
    # Control resolution (handlers own their pc update).
    next_index = str(i + 1)
    recorded = str(i)
    if kind in (K_BEZ, K_BNZ):
        cond = _branch_condition(state, op, 0, srcs[0])
        w.line(f"_t = {cond}")
        next_index = f"({op.target_index} if _t else {i + 1})"
        if op.target_index == i + 1:
            recorded = f"({n + 1 + i} if _t else {i})"
    elif kind in (K_JUMP, K_CALL):
        next_index = str(op.target_index)
    elif kind == K_RET:
        next_index = f"_iop({srcs[0]})"
    _emit_dest(w, 0, value)
    mnemonic = op.mnemonic
    w.line("_mc = it.mnemonic_counts")
    w.line(f"_mc[{mnemonic!r}] = _mc.get({mnemonic!r}, 0) + 1")
    emit_record(w, recorded, mem_addr, value)
    w.line("it.seq = seq + 1")
    w.line(f"it.pc_index = {next_index}")
    w.dedent()
    w.line()


def compile_program(program):
    """Compile ``program`` into a :class:`CompiledProgram` (one exec)."""
    decoded = decode_program(program)
    n = len(decoded)
    ranges = partition(decoded, TERMINATORS)
    w = SourceWriter()
    min_mrp = 0
    for start, end in ranges:
        min_mrp = max(min_mrp, _emit_block(w, decoded, start, end))
    for op in decoded:
        _emit_handler(w, op, n)
    namespace = base_namespace(program)
    compile_namespace(w.text(), namespace, f"straight:{program.text_base:#x}")
    block_funcs = [None] * n
    block_lens = [0] * n
    for start, end in ranges:
        block_funcs[start] = namespace[f"_b{start}"]
        block_lens[start] = end - start
    handlers = [namespace[f"_h{op.index}"] for op in decoded]
    term_at = control_descriptors(
        decoded, lambda op: (op.kind == K_CALL, op.kind == K_RET)
    )
    return CompiledProgram(
        n, block_funcs, block_lens, handlers,
        min_mrp=min_mrp, block_ranges=tuple(ranges), term_at=term_at,
        block_spans=block_spans(decoded, ranges),
    )
