"""Where the tracer wraps repro, and how its records become per-layer metrics.

Every layer is timed at the public functions the rest of repro calls it
through, patched where the caller looks them up: a function imported with
``from module import name`` is patched in the importing module as well.  A
boundary that a later change renames or removes is reported on stderr and
left untraced, so the benchmark keeps running and that metric reads 0.
"""

import contextlib
from collections import defaultdict
from unittest import mock

import repro.compiler.bb_backend as bb_backend
import repro.core.api as api
import repro.fastpath as fastpath
import repro.frontend as frontend
import repro.harness.cache as cache
import repro.harness.sampling as sampling
import repro.harness.sweep as sweep
import repro.riscv.interpreter as riscv_interpreter
import repro.riscv.predecode as riscv_predecode
import repro.serve.executor as executor
import repro.serve.jobs as jobs
import repro.straight.interpreter as straight_interpreter
import repro.straight.predecode as straight_predecode
import repro.uarch.caches as caches
import repro.uarch.core as core
import repro.uarch.pipeline as pipeline
import repro.workloads.common as workloads
from repro import isa as isa_registry

import common
from spans import self_times

#: Layer-boundary spans: (span name, module, attribute path).  Calls nested
#: in a span of the same name (a build's frontend and backend calls) add no
#: span of their own.
SPANS = (
    # compile: frontend, ir passes, backends and linking
    ("compile", api, "build"),
    ("compile", workloads, "build"),
    ("compile", api, "compile_source"),
    ("compile", api, "compile_to_riscv"),
    ("compile", api, "compile_to_straight"),
    ("compile", frontend, "compile_source"),
    ("compile", bb_backend, "compile_to_bb"),
    ("compile", sweep, "compile_binary_cached"),
    ("compile", executor, "compile_binary_cached"),
    # workloads: a cross-validated build; its functional runs stay inside
    ("crossval", workloads, "Workload.build"),
    # isa.predecode's shared decode loop, as the straight and riscv
    # decoders (bb's too) call it; it decodes each linked program once
    ("functional.predecode", straight_predecode, "_decode_program"),
    ("functional.predecode", riscv_predecode, "_decode_program"),
    ("fastpath.compile", fastpath, "compiled_for"),
    ("simulate", api, "simulate"),
    ("sampling", sampling, "simulate_sampled"),
    ("sampling.segment", sampling, "SampledRunner._simulate_segment"),
    ("uarch.warm", core, "OoOCore.warm_caches"),
    ("sweep.run", executor, "run_sweep"),
    ("sweep.execute", sweep, "execute_task"),
    ("cache.get", cache, "ResultCache.get"),
    ("cache.put", cache, "ResultCache.put"),
    ("serve.canonical", jobs, "canonical_request"),
)

#: Span labels: the request (job) ids a sweep call works on.
ATTRS = {
    "sweep.run": lambda args: [task.task_id for task in args[0]],
    "sweep.execute": lambda args: args[0].task_id,
}

#: Boundaries crossed every cycle, counted only inside the timing engine:
#: (aggregate name, module, attribute path).
AGGREGATES = (
    ("uarch.fetch", pipeline, "FetchStage.tick"),
    ("uarch.dispatch", pipeline, "DispatchStage.tick"),
    ("uarch.issue", pipeline, "IssueStage.tick"),
    ("uarch.commit", pipeline, "CommitStage.tick"),
    ("uarch.completion", pipeline, "CompletionStage.tick"),
    ("uarch.predict", pipeline, "FetchStage._predict_control"),
    ("uarch.memory", caches, "MemoryHierarchy.access_instr"),
    ("uarch.memory", caches, "MemoryHierarchy.access_data"),
)

#: Glue between layers: the benchmark's cell loop and the API, sampler and
#: sweep entry points.  Their self time is what no named layer accounts for.
GLUE = ("cell", "simulate", "sampling", "sweep.run", "sweep.execute")


def installed(tracer):
    """Wrap every layer boundary; leaving the returned context undoes it."""
    patches = []
    missing = []

    def patch(module, path, make):
        *owners, attr = path.split(".")
        owner = module
        for name in owners:
            owner = getattr(owner, name, None)
        if owner is None or not hasattr(owner, attr):
            missing.append(f"{module.__name__}.{path}")
        else:
            patches.append((owner, attr, make))

    def functional(args):
        # Trace-building runs are the functional layer proper; trace-less
        # runs inside a sampled simulation are its fast-forward; the runs
        # of a cross-validated build stay in the build's self time.
        if args[0].collect_trace:
            return "functional.trace"
        if tracer.inside("crossval"):
            return None
        return "fastpath.ff" if tracer.inside("sampling") else "functional.run"

    def steps(args, result):
        return result.steps

    def cycles(args, result):
        sched = args[0].sched
        return [sched.executed_cycles, sched.skipped_cycles]

    for name, module, path in SPANS:
        patch(module, path, lambda fn, name=name: tracer.wrap(
            fn, name, attr=ATTRS.get(name)))
    for descriptor in isa_registry.descriptors():
        patches.append((descriptor, "compile_module",
                        lambda fn: tracer.wrap(fn, "compile")))
    for module, path in ((straight_interpreter, "StraightInterpreter.run"),
                         (riscv_interpreter, "RiscvInterpreter.run")):
        patch(module, path,
              lambda fn: tracer.wrap(fn, functional, count=steps))
    patch(fastpath, "run_compiled_warming",
          lambda fn: tracer.wrap(fn, "fastpath.ff",
                                 count=lambda args, result: result))
    patch(pipeline, "TimingEngine.run",
          lambda fn: tracer.wrap(fn, "uarch.engine", count=cycles))
    for name, module, path in AGGREGATES:
        patch(module, path, lambda fn, name=name: tracer.aggregate(fn, name))
    if missing:
        common.log(f"not traced (not found): {', '.join(missing)}")
    with contextlib.ExitStack() as stack:
        for owner, attr, make in patches:
            stack.enter_context(
                mock.patch.object(owner, attr, make(getattr(owner, attr))))
        return stack.pop_all()


def layer_metrics(tracer):
    """Per-layer host seconds and counts from the tracer's records."""
    spans = tracer.finished()
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    self_ns = defaultdict(int)
    inclusive_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(int)
    cycles = [0, 0]
    segment_ns = 0
    for span in spans:
        self_ns[span.name] += selfs[span.id]
        inclusive_ns[span.name] += span.duration
        calls[span.name] += 1
        if span.name == "uarch.engine":
            if span.count:
                cycles[0] += span.count[0]
                cycles[1] += span.count[1]
        elif span.count is not None:
            counts[span.name] += span.count
        parent = by_id.get(span.parent)
        # A detailed segment is its trace collection plus its timing run.
        if span.name == "sampling.segment" or (
                span.name == "functional.trace" and parent is not None
                and parent.name == "sampling"):
            segment_ns += span.duration
    values = {
        "compile.s": self_ns["compile"] / 1e9,
        "compile.calls": calls["compile"],
        "crossval.s": self_ns["crossval"] / 1e9,
        "functional.trace_s": self_ns["functional.trace"] / 1e9,
        "functional.instrs": counts["functional.trace"],
        "functional.run_s": self_ns["functional.run"] / 1e9,
        "functional.predecode_s": self_ns["functional.predecode"] / 1e9,
        "fastpath.ff_s": self_ns["fastpath.ff"] / 1e9,
        "fastpath.ff_instrs": counts["fastpath.ff"],
        "fastpath.compile_s": self_ns["fastpath.compile"] / 1e9,
        "uarch.engine_s": inclusive_ns["uarch.engine"] / 1e9,
        "uarch.warm_s": self_ns["uarch.warm"] / 1e9,
        "uarch.executed_cycles": cycles[0],
        "uarch.skipped_cycles": cycles[1],
        "sampling.segment_s": segment_ns / 1e9,
        "cache.get_s": self_ns["cache.get"] / 1e9,
        "cache.put_s": self_ns["cache.put"] / 1e9,
        "sweep.run_s": inclusive_ns["sweep.run"] / 1e9,
        "serve.canonical_s": self_ns["serve.canonical"] / 1e9,
    }
    for name, (count, ns, child_ns) in tracer.aggregates.items():
        values[f"{name}_s"] = (ns - child_ns) / 1e9
        values[f"{name}_calls"] = count
    return values


def unattributed_pct(tracer, root):
    """Share of the ``root`` spans' time spent in glue (see :data:`GLUE`)."""
    spans = tracer.finished()
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}

    def under_root(span):
        while span is not None:
            if span.name == root:
                return True
            span = by_id.get(span.parent)
        return False

    total = sum(span.duration for span in spans if span.name == root)
    glue = sum(selfs[span.id] for span in spans
               if span.name in GLUE and under_root(span))
    return 100.0 * glue / total if total else 0.0
