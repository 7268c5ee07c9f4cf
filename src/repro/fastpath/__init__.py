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

Two function sets are generated per program and memoized on the program
object (one compile per linked binary, like pre-decode itself):

* **block functions** — whole-block execution, used by every run and the
  sampled-simulation fast-forward; a trace-collecting run passes each one
  the trace's memory-address recorder and records the block's static
  indices as one span (:class:`~repro.common.trace.CompactTrace`);
* **per-op handlers** — single-instruction execution that records itself
  into the trace, used for ``step()`` (so the lockstep golden machine
  exercises the same generated code it guards), for runs that record every
  result (guarded runs) and for landing exactly on ``max_steps``/window
  boundaries or on a computed jump target inside a block.

Architectural state is bit-identical to the baseline interpreter loop on
every run that completes without a :class:`SimulationError`.  On error
paths the same exception (type and message) is raised, but the per-block
bookkeeping batching means partially-executed blocks leave statistics
dicts behind the baseline's — acceptable because erroring programs are
compiler bugs by definition and nothing asserts statistics after a crash.

``STRAIGHT_FASTPATH=0`` in the environment disables the whole subsystem
(every interpreter falls back to the baseline ``step_op`` loop), and each
interpreter accepts ``compiled=True/False/None`` to override per instance.
"""

import os

from repro.common.errors import SimulationError

__all__ = [
    "enabled",
    "compiled_for",
    "run_compiled",
    "run_compiled_warming",
    "CompiledProgram",
]


def enabled(default=True):
    """Whether the compiled fast path is globally enabled.

    ``STRAIGHT_FASTPATH=0`` (or ``off``/``false``) disables it — the
    escape hatch for benchmarking the baseline and for debugging.
    """
    value = os.environ.get("STRAIGHT_FASTPATH")
    if value is None:
        return default
    return value.strip().lower() not in ("0", "off", "false", "no")


def compiled_for(program, isa):
    """The memoized :class:`CompiledProgram` of ``program``.

    ``isa`` is the registered ISA name; ``straight`` programs compile via
    :mod:`repro.fastpath.straight_gen`, gpr programs (``riscv``, ``bb``)
    via :mod:`repro.fastpath.riscv_gen`.  Like the pre-decode array, the
    compiled unit is static (it holds no run state), so every interpreter
    over the same linked binary shares one compile.
    """
    cached = getattr(program, "_fastpath_compiled", None)
    if cached is not None and cached.n == len(program.instrs):
        return cached
    if isa == "straight":
        from repro.fastpath.straight_gen import compile_program
    else:
        from repro.fastpath.riscv_gen import compile_program
    compiled = compile_program(program)
    program._fastpath_compiled = compiled
    return compiled


def run_compiled(it, max_steps):
    """Drive interpreter ``it`` through its compiled program.

    Runs execute whole blocks; the final instructions before ``max_steps``
    go through the per-op handlers so the step count is exact.  A computed
    jump landing mid-block (``JR``/``JALR`` to a non-leader) single-steps
    until the next block boundary.  A trace-collecting run records each
    block as its span of static indices plus its memory addresses; a trace
    that keeps every result steps through the handlers alone.  Returns the
    number of instructions executed.
    """
    fast = it._fast
    blocks = fast.block_funcs
    lens = fast.block_lens
    handlers = fast.op_handlers
    n = fast.n
    steps = 0
    if it.collect_trace:
        trace = it.trace
        spans = fast.block_spans if trace.values is None else [None] * n
        extend = trace.idx.extend
        record_mem = trace.mem.append
        while not it.halted and steps < max_steps:
            index = it.pc_index
            if not 0 <= index < n:
                raise SimulationError(
                    f"pc out of text segment: {it._pc():#x}"
                )
            span = spans[index]
            if span is not None and steps + lens[index] <= max_steps:
                blocks[index](it, record_mem)
                extend(span)
                steps += lens[index]
            else:
                handlers[index](it)
                steps += 1
        return steps
    while not it.halted and steps < max_steps:
        index = it.pc_index
        if not 0 <= index < n:
            raise SimulationError(f"pc out of text segment: {it._pc():#x}")
        fn = blocks[index]
        if fn is not None and steps + lens[index] <= max_steps:
            fn(it)
            steps += lens[index]
        else:
            handlers[index](it)
            steps += 1
    return steps


def run_compiled_warming(it, max_steps, note):
    """Trace-less compiled run that reports every control transfer.

    The sampled-simulation fast-forward path: identical to the trace-less
    loop of :func:`run_compiled`, plus one ``note(term, next_index)`` call
    per executed branch/jump, where ``term`` is the
    :data:`CompiledProgram.term_at` descriptor.  The sampling runner feeds
    these into the branch predictor, BTB and RAS (functional warming) so
    their state entering each measurement window matches a continuous
    detailed run.  Returns the number of instructions executed.
    """
    fast = it._fast
    blocks = fast.block_funcs
    lens = fast.block_lens
    handlers = fast.op_handlers
    term_at = fast.term_at
    n = fast.n
    steps = 0
    while not it.halted and steps < max_steps:
        index = it.pc_index
        if not 0 <= index < n:
            raise SimulationError(f"pc out of text segment: {it._pc():#x}")
        fn = blocks[index]
        if fn is not None and steps + lens[index] <= max_steps:
            fn(it)
            steps += lens[index]
            term = term_at[index + lens[index] - 1]
        else:
            handlers[index](it)
            steps += 1
            term = term_at[index]
        if term is not None:
            note(term, it.pc_index)
    return steps


from repro.fastpath.codegen import CompiledProgram  # noqa: E402  (re-export)
