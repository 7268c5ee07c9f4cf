"""The static timing table: per-PC facts the timing engine reads as ints.

A linked binary has a few thousand static instructions while a run
retires hundreds of thousands, so the facts the timing engine needs about
an instruction — op class, port, control flags, dependence sources — are
computed once per program, memoized on the program object like
:func:`repro.isa.predecode.decode_program`, and the dynamic trace holds
only static indices plus memory addresses (see
:class:`repro.common.trace.CompactTrace`).

One :class:`StaticOp` per static instruction holds the op-class int, the
functional-unit port int, the control flags, and the dependence sources:

* on the distance ISA (STRAIGHT) the non-zero source distances — a source
  names its producer as ``RP − distance`` (paper §III-B), so the engine's
  producer tag is simply ``seq − distance`` in trace positions;
* on the register ISAs the source and destination register numbers, which
  the rename stage maps to producers.

Index layout of :attr:`TimingTable.ops` for a program of ``n`` static
instructions: ``[0, n)`` are the instructions, ``n`` is the one-past-the-
end slot (the successor of a final ``HALT``), and ``n + 1 + i`` is the
*taken twin* of a conditional branch ``i`` whose target is its own
fall-through.  Such a branch's outcome cannot be read off the static-index
stream, so the recorders write the twin's index when it is taken; every
other slot of the twin range is ``None``.

The table is built lazily by the first timing run, never at link time: a
binary that is only executed functionally never pays for it.
"""

from repro.common.layout import WORD_BYTES
from repro.common.trace import OP_CLASSES

#: Op-class ints, in :data:`repro.common.trace.OP_CLASSES` order.
C_ALU, C_MUL, C_DIV, C_LOAD, C_STORE, C_BRANCH, C_JUMP, C_NOP, C_SYS = range(9)
CLASS_INDEX = {name: index for index, name in enumerate(OP_CLASSES)}

#: Functional-unit ports (``CoreConfig.units`` keys) and each class's port.
PORTS = ("alu", "mul", "div", "bc", "mem")
_PORT_OF = {"alu": "alu", "mul": "mul", "div": "div", "branch": "bc",
            "jump": "bc", "load": "mem", "store": "mem", "sys": "alu",
            "nop": "alu"}
PORT_OF_CLASS = tuple(PORTS.index(_PORT_OF[name]) for name in OP_CLASSES)


class StaticOp:
    """The timing facts of one static instruction (immutable).

    ``pc``, ``mnemonic``, ``op_class`` and ``is_rmov`` are also the whole
    surface the built-in pipeline observers read, so observer hooks receive
    these records.
    """

    __slots__ = (
        "index",          # static index (twins: the twin's own index)
        "pc",
        "mnemonic",
        "op_class",       # the class name (observers, trace views)
        "cls",            # the class as an int (C_*)
        "port",           # the functional-unit port as an int
        "is_mem",         # load or store: holds an LSQ entry
        "is_control",     # branch or jump: redirects fetch when taken
        "is_branch",      # conditional branch: consults the predictor
        "is_call",
        "is_return",
        "is_rmov",
        "is_spadd",
        "srcs",           # non-zero distances, or gpr source registers
        "n_srcs",         # len(srcs): register-file reads at issue
        "dest",           # gpr destination register (None: no write)
        "writes",         # writes a register (regfile write port)
        "src_distances",  # every source distance, zeros included (STRAIGHT)
        "target_pc",      # static branch/jump target, None when computed
        "fall_pc",        # the not-taken successor PC (-1: always taken)
    )

    def __init__(self, index, pc, mnemonic, op_class, srcs=(), dest=None,
                 writes=False, src_distances=(), target_pc=None,
                 is_call=False, is_return=False, is_rmov=False,
                 is_spadd=False, fall_pc=None):
        self.index = index
        self.pc = pc
        self.mnemonic = mnemonic
        self.op_class = op_class
        self.cls = CLASS_INDEX[op_class]
        self.port = PORT_OF_CLASS[self.cls]
        self.is_mem = op_class == "load" or op_class == "store"
        self.is_branch = op_class == "branch"
        self.is_control = op_class == "branch" or op_class == "jump"
        self.is_call = is_call
        self.is_return = is_return
        self.is_rmov = is_rmov
        self.is_spadd = is_spadd
        self.srcs = tuple(srcs)
        self.n_srcs = len(self.srcs)
        self.dest = dest
        self.writes = writes
        self.src_distances = tuple(src_distances)
        self.target_pc = target_pc
        self.fall_pc = pc + WORD_BYTES if fall_pc is None else fall_pc

    def taken_twin(self, index):
        """This conditional branch's always-taken twin at ``index``."""
        twin = object.__new__(StaticOp)
        for name in StaticOp.__slots__:
            setattr(twin, name, getattr(self, name))
        twin.index = index
        twin.fall_pc = -1
        return twin

    def __repr__(self):
        return f"StaticOp({self.index}, {self.pc:#x}, {self.mnemonic})"


class TimingTable:
    """All static records of one program; see the module docstring."""

    __slots__ = ("ops", "n", "distance")

    def __init__(self, ops, n, distance):
        #: StaticOp per slot (instructions, end slot, twins; None gaps)
        self.ops = ops
        #: number of real static instructions
        self.n = n
        #: True for the distance register model (STRAIGHT)
        self.distance = distance


def ambiguous_branch(op):
    """True for a conditional branch whose target is its own fall-through."""
    return op.op_class == "branch" and op.target_index == op.index + 1


def build_table(decoded, distance, flags, text_end_pc):
    """The :class:`TimingTable` of a decoded program.

    ``flags(op)`` is the ISA's ``(is_call, is_return, is_rmov, is_spadd)``
    classifier; ``text_end_pc`` is the PC one past the last instruction.
    """
    n = len(decoded)
    ops = []
    for op in decoded:
        if distance:
            srcs = tuple(d for d in op.srcs if d)
            dest = None
            writes = True
            src_distances = tuple(op.srcs)
        else:
            srcs = tuple(op.srcs)
            dest = op.dest
            writes = dest is not None
            src_distances = ()
        is_call, is_return, is_rmov, is_spadd = flags(op)
        ops.append(StaticOp(
            op.index, op.pc, op.mnemonic, op.op_class, srcs=srcs, dest=dest,
            writes=writes, src_distances=src_distances,
            target_pc=op.target_pc, is_call=is_call, is_return=is_return,
            is_rmov=is_rmov, is_spadd=is_spadd))
    ops.append(StaticOp(n, text_end_pc, "<end>", "nop"))
    twins = [None] * n
    for op in ops[:n]:
        if ambiguous_branch(decoded[op.index]):
            twins[op.index] = op.taken_twin(n + 1 + op.index)
    return TimingTable(ops + twins, n, distance)


def timing_table(program, decoded, distance, flags):
    """The memoized :class:`TimingTable` of ``program``."""
    table = getattr(program, "_timing_table", None)
    if table is None or table.n != len(decoded):
        table = build_table(decoded, distance, flags,
                            program.text_base + WORD_BYTES * len(decoded))
        program._timing_table = table
    return table
