"""Dynamic instruction traces: the compact recorded form and its entry view.

The functional simulators of every ISA record one common trace format that
the shared cycle-level timing model (:mod:`repro.uarch`) replays.  This
mirrors the paper's methodology of sharing back-end simulator code between
the architectures (§V-A) while keeping ISA-specific front-end behaviour
pluggable.

A :class:`CompactTrace` holds only what cannot be derived statically:

* ``idx`` — the static index of every dynamic instruction, in order; the
  per-PC facts live in the program's :class:`~repro.isa.timing.TimingTable`;
* ``mem`` — the effective address of every load and store, in order;
* ``values`` — every instruction's architectural result, recorded only
  when asked for (guarded runs: lockstep compares them at commit);
* ``end`` — the static index the run would execute next, so the last
  instruction's successor is known too.

Control outcomes need no storage: an instruction's successor PC is the PC
of the next recorded index, and a conditional branch is taken exactly when
that PC differs from its fall-through.

:class:`TraceEntry` is the per-instruction *view* of a trace, materialized
on demand for lockstep co-simulation, fault injection, ``straight trace``
and tests.  Its register fields are *dependence tags*:

* for register ISAs they are logical register numbers (``x0`` elided) —
  the timing model's rename stage maps them to producers;
* for STRAIGHT they are producer sequence numbers (``seq − distance``),
  because STRAIGHT has no renaming — exactly the paper's point.
"""

from itertools import accumulate

#: Operation classes, used by the scheduler to pick a functional-unit port
#: and an execution latency.
OP_CLASSES = (
    "alu",
    "mul",
    "div",
    "load",
    "store",
    "branch",  # conditional branch
    "jump",  # unconditional jump / call / return
    "nop",
    "sys",  # OUT / ECALL / HALT
)

_MEMORY_CLASSES = ("load", "store")


class TraceEntry:
    """One retired dynamic instruction (a view of one trace position)."""

    __slots__ = (
        "pc",
        "op_class",
        "mnemonic",
        "dest",
        "srcs",
        "is_branch",
        "is_control",
        "taken",
        "target_pc",
        "next_pc",
        "mem_addr",
        "is_call",
        "is_return",
        "is_rmov",
        "is_spadd",
        "src_distances",
        "dest_value",
    )

    def __init__(
        self,
        pc,
        op_class,
        mnemonic,
        dest=None,
        srcs=(),
        taken=False,
        target_pc=None,
        next_pc=None,
        mem_addr=None,
        is_call=False,
        is_return=False,
        is_rmov=False,
        is_spadd=False,
        src_distances=(),
        dest_value=None,
    ):
        self.pc = pc
        self.op_class = op_class
        self.mnemonic = mnemonic
        self.dest = dest
        self.srcs = tuple(s for s in srcs if s is not None)
        self.is_branch = op_class == "branch"
        #: Redirects fetch when taken.
        self.is_control = op_class == "branch" or op_class == "jump"
        self.taken = taken
        self.target_pc = target_pc
        self.next_pc = next_pc
        self.mem_addr = mem_addr
        self.is_call = is_call
        self.is_return = is_return
        self.is_rmov = is_rmov
        self.is_spadd = is_spadd
        self.src_distances = tuple(src_distances)
        #: Architectural result of the instruction (the written register value
        #: or, for stores, the stored word); ``None`` when there is none or
        #: the trace did not record values.  Lockstep co-simulation compares
        #: this against a golden re-execution.
        self.dest_value = dest_value

    def __repr__(self):
        return (
            f"TraceEntry(pc={self.pc:#x}, {self.mnemonic}, dest={self.dest}, "
            f"srcs={self.srcs})"
        )


class CompactTrace:
    """The recorded trace of one functional run (see the module docstring).

    Recorders append to ``idx``/``mem``/``values`` directly.  ``table_of``
    maps the program to its memoized timing table; it is called on first
    use, so a trace that never reaches the timing engine or a view never
    builds the table.
    """

    __slots__ = ("idx", "mem", "values", "end", "base_seq", "_program",
                 "_table_of", "_table", "_entries", "_mem_pos")

    def __init__(self, program=None, table_of=None, base_seq=0, values=False):
        self.idx = []
        self.mem = []
        self.values = [] if values else None
        self.end = None
        #: the interpreter's retirement count at the first recorded
        #: instruction; STRAIGHT views number ``dest``/``srcs`` from it
        self.base_seq = base_seq
        self._program = program
        self._table_of = table_of
        self._table = None
        self._entries = None
        self._mem_pos = None

    @property
    def table(self):
        """The program's :class:`~repro.isa.timing.TimingTable`."""
        if self._table is None:
            self._table = self._table_of(self._program)
        return self._table

    def __len__(self):
        return len(self.idx)

    def record(self, index, mem_addr, value):
        """Append one executed instruction (the per-op recorders' entry)."""
        self.idx.append(index)
        if mem_addr is not None:
            self.mem.append(mem_addr)
        if self.values is not None:
            self.values.append(value)

    def successor(self, k):
        """The static index executed after position ``k``."""
        return self.idx[k + 1] if k + 1 < len(self.idx) else self.end

    # -- entry views ----------------------------------------------------------

    def entry(self, k):
        """The :class:`TraceEntry` view of position ``k``."""
        if self._entries is not None:
            return self._entries[k]
        if self._mem_pos is None or len(self._mem_pos) != len(self.idx):
            # Position k's address index: the loads and stores before it.
            is_mem = [op is not None and op.is_mem for op in self.table.ops]
            self._mem_pos = list(accumulate(map(is_mem.__getitem__,
                                                self.idx[:-1]), initial=0))
        return self._view(k, self._mem_pos[k] if self.idx else 0)

    def _view(self, k, mem_pos):
        ops = self.table.ops
        op = ops[self.idx[k]]
        next_pc = ops[self.successor(k)].pc
        taken = op.is_control and (not op.is_branch or next_pc != op.fall_pc)
        target_pc = op.target_pc
        if target_pc is None and op.is_control:
            target_pc = next_pc  # computed jumps: the taken target
        if self.table.distance:
            seq = self.base_seq + k
            dest = seq
            srcs = tuple(seq - d for d in op.srcs)
        else:
            dest = op.dest
            srcs = op.srcs
        return TraceEntry(
            pc=op.pc,
            op_class=op.op_class,
            mnemonic=op.mnemonic,
            dest=dest,
            srcs=srcs,
            taken=taken,
            target_pc=target_pc,
            next_pc=next_pc,
            mem_addr=self.mem[mem_pos] if op.is_mem else None,
            is_call=op.is_call,
            is_return=op.is_return,
            is_rmov=op.is_rmov,
            is_spadd=op.is_spadd,
            src_distances=op.src_distances,
            dest_value=None if self.values is None else self.values[k],
        )

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self.entry(i) for i in range(*k.indices(len(self)))]
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("trace index out of range")
        return self.entry(k)

    def __iter__(self):
        if self._entries is not None:
            yield from self._entries
            return
        if not self.idx:
            return
        ops = self.table.ops
        mem_pos = 0
        for k, index in enumerate(self.idx):
            yield self._view(k, mem_pos)
            if ops[index].is_mem:
                mem_pos += 1

    # -- the adapter ------------------------------------------------------------

    @classmethod
    def from_entries(cls, entries, distance):
        """Adapt a list of :class:`TraceEntry` objects to the compact form.

        Synthetic and edited traces (tests, external tools) enter the
        timing engine through here.  Each entry becomes its own static
        record, and views return the original entries unchanged.  The
        engine reads an entry's successor PC as the next entry's ``pc``
        (the last one's ``next_pc``), which is what a recorded trace always
        satisfies.  ``distance`` selects the STRAIGHT tag convention: its
        ``srcs`` are producer trace positions.
        """
        from repro.isa.timing import StaticOp, TimingTable

        entries = list(entries)
        n = len(entries)
        ops = []
        mem = []
        for k, entry in enumerate(entries):
            if k + 1 < n:
                next_pc = entries[k + 1].pc
            else:
                next_pc = entry.next_pc if entry.next_pc is not None else -1
            if distance:
                srcs = tuple(k - s for s in entry.srcs)
                dest = None
                writes = True
            else:
                srcs = entry.srcs
                dest = entry.dest
                writes = dest is not None
            ops.append(StaticOp(
                k, entry.pc, entry.mnemonic, entry.op_class, srcs=srcs,
                dest=dest, writes=writes,
                src_distances=entry.src_distances,
                target_pc=entry.target_pc, is_call=entry.is_call,
                is_return=entry.is_return, is_rmov=entry.is_rmov,
                is_spadd=entry.is_spadd,
                fall_pc=-1 if entry.taken else next_pc))
            if entry.op_class in _MEMORY_CLASSES:
                mem.append(entry.mem_addr)
        ops.append(StaticOp(n, next_pc if entries else -1, "<end>", "nop"))
        trace = cls()
        trace.idx = list(range(n))
        trace.mem = mem
        trace.values = [entry.dest_value for entry in entries]
        trace.end = n
        trace._table = TimingTable(ops, n, distance)
        trace._entries = entries
        return trace
