"""Shared pieces: metric names and units, the failure tally, statistics."""

import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics (``--trace 0``), name -> unit.  BENCHMARK.json lists
#: the same names and units; the tests check that the two agree.
END_TO_END = {
    "setup_s": "s",
    "sim_kips": "kinstr/s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

#: Per-layer metrics (``--trace 1``), name -> unit, grouped by repro layer.
PER_LAYER = {
    # compile: frontend, ir, compiler backends, linking
    "compile.s": "s",
    "compile.calls": "count",
    # workloads: cross-validated builds
    "crossval.s": "s",
    # functional: the ISA interpreters (straight, riscv, bb), isa.predecode
    "functional.trace_s": "s",
    "functional.instrs": "count",
    "functional.run_s": "s",
    "functional.predecode_s": "s",
    # fastpath
    "fastpath.ff_s": "s",
    "fastpath.ff_instrs": "count",
    "fastpath.compile_s": "s",
    # uarch: the timing engine, its stages, memory hierarchy and predictors
    "uarch.engine_s": "s",
    "uarch.warm_s": "s",
    "uarch.executed_cycles": "count",
    "uarch.skipped_cycles": "count",
    "uarch.fetch_s": "s",
    "uarch.fetch_calls": "count",
    "uarch.dispatch_s": "s",
    "uarch.dispatch_calls": "count",
    "uarch.issue_s": "s",
    "uarch.issue_calls": "count",
    "uarch.commit_s": "s",
    "uarch.commit_calls": "count",
    "uarch.completion_s": "s",
    "uarch.completion_calls": "count",
    "uarch.memory_s": "s",
    "uarch.memory_calls": "count",
    "uarch.predict_s": "s",
    "uarch.predict_calls": "count",
    # uarch, simulated: these repeat exactly for a seed
    "uarch.cycles": "count",
    "uarch.branch_mispredicts": "count",
    "uarch.l1d_misses": "count",
    # harness.sampling
    "sampling.segment_s": "s",
    "sampling.windows": "count",
    "sampling.coverage": "ratio",
    "sampling.ipc_err_pct": "%",
    # harness.cache
    "cache.result_hits": "count",
    "cache.result_misses": "count",
    "cache.result_stores": "count",
    "cache.artifact_hits": "count",
    "cache.artifact_misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_s": "s",
    "cache.put_s": "s",
    # harness.sweep
    "sweep.batches": "count",
    "sweep.inline_batches": "count",
    "sweep.batched_jobs": "count",
    "sweep.run_s": "s",
    # serve
    "serve.canonical_s": "s",
    "serve.exec_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.dedup_ratio": "ratio",
    "serve.retries": "count",
    "serve.rejected": "count",
    # the load generator and the run itself
    "loadgen.late_p99_ms": "ms",
    "latency.tail_pct": "%",
    "latency.samples": "count",
    "failed_ratio": "ratio",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed; a wrong output also clears ``correct``."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, what, problems=(), wrong=False):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += bool(wrong)
            log(f"FAILED {what}: {'; '.join(problems)}")

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, fraction):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def tail(values):
    """``(value, percentile, samples)`` of the latency tail.

    The tail is the highest percentile with at least ten samples beyond it.
    Below 20 samples no such percentile lies above the median, and the tail
    is the largest sample instead (percentile 100).
    """
    ordered = sorted(values)
    samples = len(ordered)
    if not samples:
        return 0.0, 0.0, 0
    index = samples - 11 if samples >= 20 else samples - 1
    return ordered[index], 100.0 * (index + 1) / samples, samples


def peak_rss_mb(who=resource.RUSAGE_SELF):
    """Peak resident set size of this process, or of its largest finished
    child with ``resource.RUSAGE_CHILDREN`` (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def result_line(tally, values, traced):
    """The final stdout line: end-to-end or per-layer metrics with units."""
    units = PER_LAYER if traced else END_TO_END
    return {
        "correct": tally.wrong == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
