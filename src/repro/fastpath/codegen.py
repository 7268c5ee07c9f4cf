"""Shared codegen machinery for the threaded-code fast path.

Both ISA generators (:mod:`repro.fastpath.straight_gen`,
:mod:`repro.fastpath.riscv_gen`) emit one Python module's worth of source
text per linked binary — a block function per basic block plus a per-op
handler per instruction — and ``exec`` it once against a small namespace
of pre-bound helpers.  This module owns the pieces that are identical on
both sides:

* :class:`SourceWriter` — indentation-tracking line buffer;
* :class:`CompiledProgram` — the compiled artifact the dispatch driver
  consumes (dense block/handler tables);
* the inline 32-bit ALU/compare expression templates, textually mirroring
  :func:`repro.ir.passes.constfold.eval_binop` / ``eval_icmp`` exactly —
  divide/remainder keep their subtle corner semantics (including the
  baseline's ``int(sa / sb)`` truncation) by calling the pre-bound
  evaluators instead of being inlined;
* the runtime error helpers raising the baseline's exact
  :class:`~repro.common.errors.SimulationError` diagnostics.
"""

from functools import partial

from repro.common.errors import SimulationError
from repro.ir.passes.constfold import eval_binop
from repro.isa.timing import ambiguous_branch

MASK = "4294967295"   # 0xFFFF_FFFF
SIGN = 2147483648     # 0x8000_0000


class CompiledProgram:
    """The compiled fast path of one linked binary (static, shareable)."""

    __slots__ = ("n", "block_funcs", "block_lens", "op_handlers", "min_mrp",
                 "block_ranges", "term_at", "block_spans")

    def __init__(self, n, block_funcs, block_lens, op_handlers, min_mrp=0,
                 block_ranges=(), term_at=(), block_spans=()):
        self.n = n
        #: Dense tables indexed by instruction index: a block function (and
        #: its length) at each leader, None/0 elsewhere.
        self.block_funcs = block_funcs
        self.block_lens = block_lens
        #: One single-instruction handler per index (trace-capable).
        self.op_handlers = op_handlers
        #: Smallest ``max_rp`` the intra-block forwarding is valid for
        #: (STRAIGHT only): a forwarded distance ``d`` reads the producer's
        #: local, which matches the register file only while no later
        #: instruction in the window aliased the register — guaranteed for
        #: ``max_rp >= d``.  Interpreters with a smaller circular file fall
        #: back to the baseline loop.
        self.min_mrp = min_mrp
        self.block_ranges = block_ranges
        #: Control-flow descriptors indexed by instruction index —
        #: ``(pc, is_conditional, is_call, is_return, fallthrough_index)``
        #: at every branch/jump, None elsewhere.  Sampled simulation uses
        #: them for functional warming: replaying each fast-forwarded
        #: control transfer into the branch predictor / BTB / RAS so their
        #: state matches a continuous detailed run (SMARTS's key accuracy
        #: requirement).
        self.term_at = term_at
        #: The static indices a block records into a trace, at each leader
        #: (None elsewhere, and for a block ending in a branch to its own
        #: fall-through: its taken twin is only told apart per op).
        self.block_spans = block_spans


def block_spans(decoded, ranges):
    """The :attr:`CompiledProgram.block_spans` table of a partition."""
    spans = [None] * len(decoded)
    for start, end in ranges:
        if not ambiguous_branch(decoded[end - 1]):
            spans[start] = tuple(range(start, end))
    return spans


def control_descriptors(decoded, is_call_return):
    """The ``term_at`` table for a decoded program.

    ``is_call_return(op)`` is the ISA's classifier returning the
    ``(is_call, is_return)`` pair for one control op.  Conditionality comes
    from ``op_class`` — exactly the distinction the fetch stage's
    ``_predict_control`` draws between predictor-consulting branches and
    always-taken jumps.
    """
    term_at = [None] * len(decoded)
    for op in decoded:
        if op.op_class == "branch" or op.op_class == "jump":
            is_call, is_return = is_call_return(op)
            term_at[op.index] = (
                op.pc, op.op_class == "branch", is_call, is_return,
                op.index + 1,
            )
    return term_at


class SourceWriter:
    """Tiny indented source-text builder."""

    def __init__(self):
        self._lines = []
        self._indent = 0

    def line(self, text=""):
        self._lines.append("    " * self._indent + text if text else "")

    def indent(self):
        self._indent += 1

    def dedent(self):
        self._indent -= 1

    def text(self):
        return "\n".join(self._lines) + "\n"


def emit_record_address(w):
    """Emit a block's hand-off of the address local ``_a`` to the trace's
    address recorder ``ma``, which only trace-collecting runs pass."""
    w.line("if ma is not None:")
    w.indent()
    w.line("ma(_a)")
    w.dedent()


def emit_record(w, recorded, mem_addr, value):
    """Emit a handler's trace recording, taken when the run collects one.

    ``recorded`` is the static-index expression, ``mem_addr`` the address
    local of a load or store (None otherwise), ``value`` the result
    expression kept by traces that record values.
    """
    w.line("if it.collect_trace:")
    w.indent()
    w.line("_tr = it.trace")
    w.line(f"_tr.idx.append({recorded})")
    if mem_addr is not None:
        w.line(f"_tr.mem.append({mem_addr})")
    w.line("if _tr.values is not None:")
    w.indent()
    w.line(f"_tr.values.append({value})")
    w.dedent()
    w.dedent()


# -- runtime error helpers (bound into every generated namespace) --------------


def raise_neg_distance(it, distance, pc):
    raise SimulationError(
        f"pc={pc:#x}: distance {distance} reaches before program start"
    )


def raise_stale(it, distance, producer, reg, pc):
    raise SimulationError(
        f"pc={pc:#x}: distance {distance} names instruction "
        f"#{producer} but register {reg} holds the value of "
        f"#{it.written_seq[reg]} (stale/aliased operand)"
    )


def raise_misaligned(what, addr, pc):
    raise SimulationError(f"pc={pc:#x}: misaligned {what} {addr:#x}")


def raise_unknown_ecall(service, pc):
    raise SimulationError(f"pc={pc:#x}: unknown ecall {service}")


def base_namespace(program):
    """The helper bindings shared by both ISA generators."""
    return {
        "_iop": program.index_of_pc,
        "_tb": program.text_base,
        "_neg": raise_neg_distance,
        "_stale": raise_stale,
        "_mis": raise_misaligned,
        "_badcall": raise_unknown_ecall,
        "_sdiv": partial(eval_binop, "sdiv"),
        "_udiv": partial(eval_binop, "udiv"),
        "_srem": partial(eval_binop, "srem"),
        "_urem": partial(eval_binop, "urem"),
    }


def compile_namespace(source, namespace, tag):
    """``exec`` one generated module; returns the populated namespace."""
    code = compile(source, f"<fastpath:{tag}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    return namespace


# -- inline expression templates ------------------------------------------------

#: Binops whose semantics inline to simple masked integer expressions.
#: Divide/remainder are excluded on purpose: their corner cases (divide by
#: zero, INT_MIN overflow, float-mediated truncation) must match
#: ``eval_binop`` bit-for-bit, so they call the pre-bound evaluator.
_DIV_HELPERS = {"sdiv": "_sdiv", "udiv": "_udiv", "srem": "_srem",
                "urem": "_urem"}


def _signed(expr):
    """Two's-complement reinterpretation of a wrapped word expression."""
    return f"({expr} - (({expr} >> 31) << 32))"


def binop_expr(name, a, b):
    """Python expression computing ``eval_binop(name, a, b)``.

    ``a`` and ``b`` must be *simple* expressions (a local name or an int
    literal) — templates may repeat them.  Integer ``b`` enables constant
    folding of shift counts and additive identities.  All inputs are
    assumed wrapped to 32 bits (the interpreters' standing invariant);
    every emitted expression yields a wrapped word.
    """
    b_int = b if isinstance(b, int) else None
    a = str(a)
    b = str(b)
    if name == "add":
        return a if b_int == 0 else f"({a} + {b}) & {MASK}"
    if name == "sub":
        return a if b_int == 0 else f"({a} - {b}) & {MASK}"
    if name == "mul":
        return f"({a} * {b}) & {MASK}"
    if name == "and":
        return f"{a} & {b}"
    if name == "or":
        return a if b_int == 0 else f"{a} | {b}"
    if name == "xor":
        return a if b_int == 0 else f"{a} ^ {b}"
    if name == "shl":
        if b_int is not None:
            k = b_int & 31
            return a if k == 0 else f"({a} << {k}) & {MASK}"
        return f"({a} << ({b} & 31)) & {MASK}"
    if name == "lshr":
        if b_int is not None:
            k = b_int & 31
            return a if k == 0 else f"{a} >> {k}"
        return f"{a} >> ({b} & 31)"
    if name == "ashr":
        if b_int is not None:
            k = b_int & 31
            # wrap32(sa >> 0) == a for a wrapped input.
            if k == 0:
                return a
            return f"({_signed(a)} >> {k}) & {MASK}"
        return f"({_signed(a)} >> ({b} & 31)) & {MASK}"
    helper = _DIV_HELPERS.get(name)
    if helper is not None:
        return f"{helper}({a}, {b})"
    raise ValueError(f"no inline template for binop {name!r}")


def icmp_cond(pred, a, b):
    """Python *boolean* expression for ``eval_icmp(pred, a, b) == 1``."""
    a = str(a)
    sb = None
    if isinstance(b, int):
        sb = b ^ SIGN  # pre-fold the sign-flip for signed compares
    b = str(b)
    if pred == "eq":
        return f"{a} == {b}"
    if pred == "ne":
        return f"{a} != {b}"
    if pred == "ult":
        return f"{a} < {b}"
    if pred == "ule":
        return f"{a} <= {b}"
    if pred == "ugt":
        return f"{a} > {b}"
    if pred == "uge":
        return f"{a} >= {b}"
    signed_ops = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
    op = signed_ops.get(pred)
    if op is None:
        raise ValueError(f"no inline template for icmp {pred!r}")
    rhs = str(sb) if sb is not None else f"({b} ^ {SIGN})"
    return f"({a} ^ {SIGN}) {op} {rhs}"


def icmp_expr(pred, a, b):
    """Python expression computing ``eval_icmp(pred, a, b)`` (0 or 1)."""
    return f"(1 if {icmp_cond(pred, a, b)} else 0)"
