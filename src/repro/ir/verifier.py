"""IR verifier: structural and SSA well-formedness checks.

Run after construction and between passes (the pass manager calls it when
``verify_each=True``).  Checks:

* every block ends in exactly one terminator, and only at the end;
* phis appear only at block heads and cover each predecessor exactly once;
* every instruction operand is a constant, argument, global, or an
  instruction that *dominates* the use (the SSA dominance property),
  checked against a dominator tree that is rebuilt only when the
  function's CFG changed shape;
* branch targets belong to the same function.
"""

from repro.common.errors import IRError
from repro.ir.values import ConstantInt, Argument, GlobalVariable, UndefValue
from repro.ir.instructions import Instruction, Phi
from repro.ir.analysis.dominance import DominatorTree


def verify_module(module):
    """Verify every function in ``module``; raises :class:`IRError` on failure."""
    for func in module.functions.values():
        verify_function(func)


def verify_function(func):
    """Verify one function; raises :class:`IRError` on the first violation."""
    if not func.blocks:
        raise IRError(f"@{func.name}: function has no blocks")
    _check_block_structure(func)
    _check_phi_shape(func)
    _check_ssa_dominance(func)


def _check_block_structure(func):
    known_blocks = set(func.blocks)
    for block in func.blocks:
        if not block.instructions:
            raise IRError(f"@{func.name}/%{block.name}: empty block")
        for instr in block.instructions[:-1]:
            if instr.is_terminator():
                raise IRError(
                    f"@{func.name}/%{block.name}: terminator {instr!r} "
                    "is not last in block"
                )
        if not block.instructions[-1].is_terminator():
            raise IRError(f"@{func.name}/%{block.name}: missing terminator")
        for succ in block.successors():
            if succ not in known_blocks:
                raise IRError(
                    f"@{func.name}/%{block.name}: branch to foreign block "
                    f"%{succ.name}"
                )


def _check_phi_shape(func):
    preds = func.predecessors()
    for block in func.blocks:
        seen_non_phi = False
        for instr in block.instructions:
            if isinstance(instr, Phi):
                if seen_non_phi:
                    raise IRError(
                        f"@{func.name}/%{block.name}: phi {instr!r} not at "
                        "block head"
                    )
                incoming = instr.incoming_blocks
                expected = preds[block]
                if sorted(b.name for b in incoming) != sorted(
                    b.name for b in expected
                ):
                    raise IRError(
                        f"@{func.name}/%{block.name}: phi {instr!r} incoming "
                        f"blocks {[b.name for b in incoming]} do not match "
                        f"predecessors {[b.name for b in expected]}"
                    )
            else:
                seen_non_phi = True


def _dominator_tree(func):
    """``func``'s dominator tree, reused while its CFG keeps its shape.

    The tree is cached on the function, keyed on every block in order with
    the tuple of its successors (the first block is the entry).  The key is
    recomputed on every verify, so no pass has to report an edit, and any
    block or edge edit rebuilds the tree.
    """
    shape = tuple((block, tuple(block.successors())) for block in func.blocks)
    cached = getattr(func, "_verifier_domtree", None)
    if cached is not None and cached[0] == shape:
        return cached[1]
    domtree = DominatorTree(func)
    func._verifier_domtree = (shape, domtree)
    return domtree


def _check_ssa_dominance(func):
    domtree = _dominator_tree(func)
    positions = {}
    for block in func.blocks:
        for idx, instr in enumerate(block.instructions):
            positions[instr] = (block, idx)

    def defined_before(def_instr, use_block, use_idx):
        def_block, def_idx = positions[def_instr]
        if def_block is use_block:
            return def_idx < use_idx
        return domtree.dominates(def_block, use_block)

    for block in func.blocks:
        for idx, instr in enumerate(block.instructions):
            for op_index, op in enumerate(instr.operands):
                if isinstance(
                    op, (ConstantInt, Argument, GlobalVariable, UndefValue)
                ):
                    continue
                if not isinstance(op, Instruction):
                    raise IRError(
                        f"@{func.name}/%{block.name}: {instr!r} has "
                        f"non-value operand {op!r}"
                    )
                if op not in positions:
                    raise IRError(
                        f"@{func.name}/%{block.name}: {instr!r} uses "
                        f"{op.short()} which is not in the function"
                    )
                if isinstance(instr, Phi):
                    # A phi use must dominate the *end of the incoming edge's
                    # predecessor*, not the phi itself.
                    pred = instr.incoming_blocks[op_index]
                    pred_len = len(pred.instructions)
                    if not defined_before(op, pred, pred_len):
                        raise IRError(
                            f"@{func.name}/%{block.name}: phi operand "
                            f"{op.short()} does not dominate edge from "
                            f"%{pred.name}"
                        )
                elif not defined_before(op, block, idx):
                    raise IRError(
                        f"@{func.name}/%{block.name}: use of {op.short()} in "
                        f"{instr!r} is not dominated by its definition"
                    )
