"""Threaded-code functional fast path: basic blocks compiled to closures.

The pre-decoded interpreters (:mod:`repro.straight.interpreter`,
:mod:`repro.riscv.interpreter`) still pay one Python dispatch per dynamic
instruction: an attribute-heavy ``step_op`` call, a big ``if/elif`` chain
over the kind int, a ``partial(eval_binop, ...)`` call per ALU op and two
dict updates per retired instruction.  This package removes all of it by
compiling each basic block of the pre-decoded ``DecodedOp`` array into one
specialized Python function (classic threaded-code / superinstruction
technique, done with textual codegen + ``exec``):

* operand accessors are pre-bound: register indices, wrapped immediates and
  branch targets are baked in as literals;
* ALU/compare semantics are inlined as native integer expressions (the
  exact :func:`repro.ir.passes.constfold.eval_binop` algebra, masked to 32
  bits); rare ops (divide/remainder) fall back to the pre-bound evaluators;
* common pairs are fused into superinstructions: a compare feeding the
  block-ending branch becomes one native boolean test, and intra-block
  producers are forwarded through Python locals, so address-generation
  feeding a load never round-trips the register file;
* per-instruction bookkeeping (``mnemonic_counts``, ``distance_hist``) is
  batched into precomputed per-block bumps, applied in the same
  first-occurrence order the baseline produces, so the final statistics
  dicts are identical — iteration order included.

Code is generated in proportion to the run.  :func:`compiled_for` builds
only a binary's static tables (the block partition, block lengths, trace
spans, control descriptors and ``min_mrp``) and memoizes them on the
program object, like pre-decode itself.  The dispatch loops count each
entry into a cold block; when a block's count reaches
:data:`HOT_THRESHOLD`, that block alone is emitted, ``compile()``d and
``exec``'d into the binary's one namespace, and every later run over the
binary uses it.  Counts are shared by every run over the binary, so a loop
that each short run enters only a few dozen times still compiles.  Cold
blocks, and single instructions, go through the interpreter's own
``step_op``: ``step()``, landing exactly on ``max_steps``/window
boundaries, a computed jump target inside a block, and, in a
trace-collecting run, blocks whose span the index stream cannot express.
A trace-collecting run passes a block function the trace's memory-address
recorder and records the block's static indices as one span
(:class:`~repro.common.trace.CompactTrace`).  Interpreters that run no
generated code compile none: one whose trace records every result
(guarded runs, fault campaigns) takes the baseline loop.

Architectural state is bit-identical to the baseline interpreter loop on
every run that completes without a :class:`SimulationError`.  On error
paths the same exception (type and message) is raised, but the per-block
bookkeeping batching means partially-executed blocks leave statistics
dicts behind the baseline's — acceptable because erroring programs are
compiler bugs by definition and nothing asserts statistics after a crash.

Each interpreter accepts ``compiled=True/False/None``: ``True`` compiles
every block at its first entry, ``False`` takes the baseline ``step_op``
loop, and ``None`` (the default) compiles blocks once hot.
"""

from repro.common.errors import SimulationError

__all__ = [
    "HOT_THRESHOLD",
    "compiled_for",
    "run_compiled",
    "run_compiled_warming",
    "CompiledProgram",
]


#: Entries into a cold block before it compiles.  The break-even of
#: compiling a block is its compile time per static instruction over the
#: time a compiled block saves per executed instruction, measured at 37-109
#: entries for RV32IM and bb binaries and 63-94 for STRAIGHT ones on a
#: shared 2-vCPU x86-64 host (DESIGN.md §14.1).
HOT_THRESHOLD = 64


def compiled_for(program, isa):
    """The memoized :class:`CompiledProgram` of ``program``.

    ``isa`` is the registered ISA name; ``straight`` programs take their
    tables and block emitter from :mod:`repro.fastpath.straight_gen`, gpr
    programs (``riscv``, ``bb``) from :mod:`repro.fastpath.riscv_gen`.
    Building it generates no code: blocks compile one at a time once hot.
    Every interpreter over the same linked binary shares the one instance,
    its entry counts and its compiled blocks.
    """
    cached = getattr(program, "_fastpath_compiled", None)
    if cached is not None and cached.n == len(program.instrs):
        return cached
    if isa == "straight":
        from repro.fastpath.straight_gen import prepare
    else:
        from repro.fastpath.riscv_gen import prepare
    compiled = prepare(program)
    program._fastpath_compiled = compiled
    return compiled


def run_compiled(it, max_steps):
    """Drive interpreter ``it`` through its compiled program.

    Runs execute whole hot blocks; each entry into a cold block counts
    towards compiling it (``it._hot_threshold`` entries), and until then
    the block single-steps through ``step_op``.  The final instructions
    before ``max_steps`` go through ``step_op`` so the step count is exact.
    A computed jump landing mid-block (``JR``/``JALR`` to a non-leader)
    single-steps until the next block boundary.  A trace-collecting run
    records each block as its span of static indices plus its memory
    addresses (the trace keeps no results: interpreters that record them
    never compile).  Returns the number of instructions executed.
    """
    fast = it._fast
    blocks = fast.block_funcs
    lens = fast.block_lens
    enter = fast.enter
    hot = it._hot_threshold
    decoded = it.decoded
    step_op = it.step_op
    n = fast.n
    steps = 0
    if it.collect_trace:
        trace = it.trace
        spans = fast.block_spans
        extend = trace.idx.extend
        record_mem = trace.mem.append
        while not it.halted and steps < max_steps:
            index = it.pc_index
            if not 0 <= index < n:
                raise SimulationError(
                    f"pc out of text segment: {it._pc():#x}"
                )
            span = spans[index]
            if span is not None:
                fn = blocks[index] or enter(index, hot)
                if fn is not None and steps + lens[index] <= max_steps:
                    fn(it, record_mem)
                    extend(span)
                    steps += lens[index]
                    continue
            step_op(decoded[index])
            steps += 1
        return steps
    while not it.halted and steps < max_steps:
        index = it.pc_index
        if not 0 <= index < n:
            raise SimulationError(f"pc out of text segment: {it._pc():#x}")
        fn = blocks[index]
        if fn is None and lens[index]:
            fn = enter(index, hot)
        if fn is not None and steps + lens[index] <= max_steps:
            fn(it)
            steps += lens[index]
        else:
            step_op(decoded[index])
            steps += 1
    return steps


def run_compiled_warming(it, max_steps, note):
    """Trace-less compiled run that reports every control transfer.

    The sampled-simulation fast-forward path: identical to the trace-less
    loop of :func:`run_compiled` (cold blocks counting towards their
    compile included), plus one ``note(term, next_index)`` call per
    executed branch/jump, where ``term`` is the
    :data:`CompiledProgram.term_at` descriptor.  The sampling runner feeds
    these into the branch predictor, BTB and RAS (functional warming) so
    their state entering each measurement window matches a continuous
    detailed run.  Returns the number of instructions executed.
    """
    fast = it._fast
    blocks = fast.block_funcs
    lens = fast.block_lens
    enter = fast.enter
    hot = it._hot_threshold
    decoded = it.decoded
    step_op = it.step_op
    term_at = fast.term_at
    n = fast.n
    steps = 0
    while not it.halted and steps < max_steps:
        index = it.pc_index
        if not 0 <= index < n:
            raise SimulationError(f"pc out of text segment: {it._pc():#x}")
        fn = blocks[index]
        if fn is None and lens[index]:
            fn = enter(index, hot)
        if fn is not None and steps + lens[index] <= max_steps:
            fn(it)
            steps += lens[index]
            term = term_at[index + lens[index] - 1]
        else:
            step_op(decoded[index])
            steps += 1
            term = term_at[index]
        if term is not None:
            note(term, it.pc_index)
    return steps


from repro.fastpath.codegen import CompiledProgram  # noqa: E402  (re-export)
