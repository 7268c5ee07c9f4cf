"""Pluggable front-end models: register renaming vs. RP operand determination.

This module is the heart of the reproduction's architectural comparison:

* :class:`RenameFrontEnd` models the conventional superscalar front end —
  RAM-based RMT lookups, free-list allocation (dispatch stalls when physical
  registers run out), and the recovery cost of *walking the ROB to restore
  the RMT* after a branch misprediction (paper §II-A, [14]);
* :class:`StraightFrontEnd` models STRAIGHT's operand determination — an
  adder per operand against the running RP, no table, no free list, and a
  *single ROB-entry read* on recovery (paper §III-B, Figs. 3 and 4).  Its
  only dispatch restriction is one SPADD per group (the cascaded-SPADD
  frequency concern of §III-B);
* :class:`BasicBlockFrontEnd` models a BasicBlocker-style RV32IM front end
  (the ``bb`` ISA): a conventional rename stage, but control flow resolved
  from block-header annotations instead of prediction — sequential fetch
  within an announced basic block, no speculation, no mispredictions.

Models register in :data:`FRONTEND_MODELS`; a
:class:`~repro.uarch.config.CoreConfig` names one via its
``frontend_model`` property and :class:`~repro.uarch.core.OoOCore` looks it
up there.

Every model reads the static records of :mod:`repro.isa.timing`:
``rename(op, seq, spadds)`` either refuses dispatch (counting its stall and
returning ``None``) or returns the producer tags of trace position ``seq``
— a ``None`` tag stands for a source no in-flight instruction produces;
``on_commit(freed)`` hears how many committed instructions had a
destination register.
"""


class RenameFrontEnd:
    """Conventional rename stage with a RAM-based RMT and a free list."""

    name = "rename"
    #: how trace sources name producers (see repro.isa.timing)
    register_model = "gpr"
    #: counters this model increments, contributed to the StatsRegistry
    STAT_FIELDS = ("rob_walk_cycles", "freelist_stall_cycles",
                   "rename_src_reads", "rename_writes")

    def __init__(self, config, stats):
        self.config = config
        self.stats = stats
        # 32 architectural registers hold mappings at all times; the rest of
        # the physical register file backs in-flight instructions.
        self.free_regs = config.phys_regs - 32
        self.last_writer = {}  # logical reg -> producer trace seq

    def reset_run(self):
        """Clear per-run state before a new trace (seq numbering restarts).

        ``last_writer`` maps logical registers to producer *trace positions*;
        carrying mappings across runs on a reused core (sampled simulation
        windows) would alias unrelated instructions in the new numbering —
        including future positions, which can deadlock the issue queue.  A
        producer from before this trace is architecturally long-retired, and
        an empty map yields exactly that ("operand ready").
        """
        self.free_regs = self.config.phys_regs - 32
        self.last_writer = {}

    def rename(self, op, seq, spadds):
        """Map source logical registers to producer tags; allocate the dest.

        Returns the producer tags (trace sequence numbers; ``None`` for a
        register no instruction of this run has written yet), or ``None``
        when the free list is empty (a free-list stall).
        """
        dest = op.dest
        stats = self.stats
        if dest is not None and self.free_regs <= 0:
            stats.freelist_stall_cycles += 1
            return None
        srcs = op.srcs
        writer = self.last_writer.get
        if len(srcs) == 2:
            tags = (writer(srcs[0]), writer(srcs[1]))
        elif srcs:
            tags = tuple(map(writer, srcs))
        else:
            tags = ()
        if dest is None:
            stats.rename_src_reads += op.n_srcs
        else:
            # sources + previous-mapping read of the destination
            stats.rename_src_reads += op.n_srcs + 1
            self.free_regs -= 1
            self.last_writer[dest] = seq
            stats.rename_writes += 1
        return tags

    def on_commit(self, freed):
        """Freeing the previous mapping returns one register per writer."""
        self.free_regs += freed

    def recovery_block_until(self, resolve_cycle, fetch_cycle, rob_free):
        """When dispatch may resume after a mispredict resolved at
        ``resolve_cycle`` for a branch fetched at ``fetch_cycle``.

        The RMT must be restored by walking the wrong-path ROB entries at
        front-end width; re-fetched instructions reaching the rename stage
        earlier than that must stall (paper §V-A).  Wrong-path occupancy is
        estimated as fetch-width instructions per cycle of resolution delay,
        capped by the ROB space that was available.
        """
        if self.config.ideal_recovery:
            return resolve_cycle
        wrong_path = min(
            self.config.fetch_width * max(0, resolve_cycle - fetch_cycle),
            max(rob_free, 0),
        )
        walk_width = self.config.fetch_width
        walk_cycles = -(-wrong_path // walk_width) if wrong_path else 0
        self.stats.rob_walk_cycles += walk_cycles
        # The walk overlaps the re-fetched instructions' trip to the rename
        # stage; only the excess shows up as an extra stall.
        overlap = self.config.rename_stage_depth
        return resolve_cycle + max(0, walk_cycles - overlap)


class StraightFrontEnd:
    """STRAIGHT operand determination: RP arithmetic instead of renaming."""

    name = "straight"
    #: how trace sources name producers (see repro.isa.timing)
    register_model = "distance"
    #: counters this model increments, contributed to the StatsRegistry
    STAT_FIELDS = ("spadd_stall_cycles", "opdet_ops")

    def __init__(self, config, stats):
        self.config = config
        self.stats = stats
        # MAX_RP = maximum distance + ROB entries (paper §III-B) never
        # aliases live registers, so there is no free-list stall by design.
        self.max_rp = config.max_distance + config.rob_entries
        self.spadd_limit = getattr(config, "spadd_per_group", 1)

    def reset_run(self):
        pass  # operand determination is stateless across runs

    def rename(self, op, seq, spadds):
        """Operand determination: one subtraction per source operand.

        ``spadds`` SPADDs already dispatched this group; a further one
        waits for the next group.
        """
        if op.is_spadd and spadds >= self.spadd_limit:
            self.stats.spadd_stall_cycles += 1
            return None
        srcs = op.srcs
        self.stats.opdet_ops += op.n_srcs
        # The producer of a source at distance d is the instruction d
        # positions earlier in the trace: RP − distance (§III-B).
        if len(srcs) == 2:
            return (seq - srcs[0], seq - srcs[1])
        if len(srcs) == 1:
            return (seq - srcs[0],)
        return tuple(seq - distance for distance in srcs)

    def on_commit(self, freed):
        pass  # RP reclamation is implicit in the circular register file

    def recovery_block_until(self, resolve_cycle, fetch_cycle, rob_free):
        """One ROB-entry read restores RP/SP/PC (paper Fig. 4)."""
        if self.config.ideal_recovery:
            return resolve_cycle
        return resolve_cycle + 1


class BasicBlockFrontEnd(RenameFrontEnd):
    """BasicBlocker-style front end: block headers instead of prediction.

    The ``bb`` ISA marks every basic-block head with a ``BB`` instruction
    announcing the block's instruction count, so fetch always knows where
    the current block ends and control transfers are resolved at decode —
    there is no branch predictor and therefore no misprediction recovery.
    The model charges that as: fetch groups stop at taken control transfers
    (sequential fetch never crosses a block boundary speculatively), with
    no recovery stalls; the dynamic cost of the scheme is the ``BB`` header
    instruction itself, which occupies fetch/decode/ROB slots in every
    executed block.  Register renaming is inherited unchanged — the ISA is
    RV32IM plus headers.
    """

    name = "bb"

    def predict_control(self, stats, taken):
        """The FetchStage control hook: (mispredicted, stop_group, penalty).

        Mirrors the predictor path's accounting (every control transfer
        counts as a fetched branch) but never mispredicts and never pays a
        redirect: the block header resolved the boundary ahead of fetch.
        """
        stats.branches += 1
        return False, taken, 0


#: Registered front-end models by name (``CoreConfig.frontend_model``).
FRONTEND_MODELS = {
    "rename": RenameFrontEnd,
    "straight": StraightFrontEnd,
    "bb": BasicBlockFrontEnd,
}
