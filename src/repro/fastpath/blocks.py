"""Basic-block partition of a pre-decoded instruction array.

Leaders are the program entry (index 0), every static branch/jump target,
and the instruction after any terminator (conditional branches, jumps,
calls, returns/indirect jumps, halting instructions) — i.e. the classic
basic-block definition over the ``DecodedOp`` array.  Computed-jump
targets (``JR``/``JALR``) are not statically known; the dispatch driver
single-steps through the interpreter's ``step_op`` when one lands inside a
block, so the partition only has to be *sound* (no terminator mid-block),
not complete.
"""


def block_starts(decoded, terminator_kinds):
    """Sorted leader indices of ``decoded``.

    ``terminator_kinds`` is the ISA's set of dispatch kinds that end a
    block (anything that can leave the fall-through path or halt).
    """
    n = len(decoded)
    leaders = {0} if n else set()
    for op in decoded:
        if op.kind in terminator_kinds:
            if op.index + 1 < n:
                leaders.add(op.index + 1)
            target = op.target_index
            if target is not None and 0 <= target < n:
                leaders.add(target)
    return sorted(leaders)


def partition(decoded, terminator_kinds):
    """``[(start, end), ...]`` half-open block ranges covering ``decoded``.

    Every block is straight-line and only its last instruction may be a
    terminator: a terminator at index ``t`` makes ``t + 1`` a leader, so
    consecutive leader ranges satisfy the invariant by construction.
    """
    n = len(decoded)
    if n == 0:
        return []
    starts = block_starts(decoded, terminator_kinds)
    bounds = starts + [n]
    return [(start, bounds[i + 1]) for i, start in enumerate(starts)]
