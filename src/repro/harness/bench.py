"""Simulator benchmarks behind ``straight bench --smoke``.

The smoke report has three sections: ``predecode`` (the functional hot
paths, :func:`bench_predecode`), ``observability`` (the timing engine with
and without observers, :func:`bench_observability`; CI gates the empty-bus
overhead) and ``sweep`` (a cold then a warm pass of a reduced grid through
the persistent cache, :func:`bench_sweep`).  ``--fastpath`` adds
:func:`bench_fastpath`.  Each comparison asserts that its paths agree
(cycles, output, steps) before it reports their timings.  CI records the
JSON report as a build artifact so regressions show up in history.

The two workloads stress the engine in opposite ways:

* ``branchy_div`` — a deep serial division chain feeding data-dependent
  branches.  Mispredicted branches park fetch until the chain resolves,
  and the machine sits idle for most of each division's latency.
* ``mem_chase`` — a dependent-load pointer chase over a cold cache.  Fetch
  runs far ahead and dispatch attempts (and counts a structural stall) on
  almost every cycle.
"""

import math
import os
import tempfile
import time

from repro import isa as isa_registry
from repro.common.bitops import wrap32
from repro.common.layout import WORD_BYTES
from repro.core.api import build
from repro.core.configs import ALL_CORES
from repro.ir.passes.constfold import eval_binop, eval_icmp
from repro.uarch.core import OoOCore

BENCH_WORKLOADS = {
    "branchy_div": """
int main() {
    int acc = 999999999;
    int lcg = 12345;
    for (int i = 0; i < 300; i++) {
        lcg = lcg * 1103515245 + 12345;
        int t = acc / (i + 2);
        t = t / 3 + 7;
        t = t / 2 + 5;
        t = t / 3 + 9;
        t = t / 2 + 11;
        t = t / 3 + 13;
        t = t / 2 + 885;
        t = t / 3 + 3;
        if ((t ^ lcg) & 1) acc = 999999999 - (lcg & 255);
        else acc = 900000000 + (lcg & 1023);
    }
    __out(acc);
    return 0;
}
""",
    "mem_chase": """
int a[4096];
int main() {
    for (int i = 0; i < 4096; i++) { a[i] = (i * 67 + 1) & 4095; }
    int p = 0;
    int s = 0;
    for (int i = 0; i < 1500; i++) {
        p = a[p];
        s = s + (p & 3);
    }
    __out(s);
    return 0;
}
""",
}


def _trace_for(source, label):
    binaries = build(source)
    binary = binaries.all()[label]
    interp = binary.interpreter(collect_trace=True)
    interp.run(50_000_000)
    return interp.trace


# -- pre-decode speedup --------------------------------------------------------

_SEED_ALU = {
    "ADD": "add", "SUB": "sub", "AND": "and", "OR": "or", "XOR": "xor",
    "SLL": "shl", "SRL": "lshr", "SRA": "ashr", "MUL": "mul", "DIV": "sdiv",
    "DIVU": "udiv", "REM": "srem", "REMU": "urem", "ADDI": "add",
    "ANDI": "and", "ORI": "or", "XORI": "xor", "SLLI": "shl", "SRLI": "lshr",
    "SRAI": "ashr",
}
_SEED_CMP = {"SLT": "slt", "SLTU": "ult", "SLTI": "slt", "SLTUI": "ult"}


def _seed_style_run(interp, max_steps=50_000_000):
    """Reference loop re-deriving the decode on every dynamic instruction.

    This replicates the per-step work the interpreter did before
    pre-decoding (mnemonic-table lookups, immediate wrapping, branch-target
    arithmetic on each execution) so the benchmark can price exactly what
    :mod:`repro.straight.predecode` removed.  The caller cross-checks its
    output and step count against the fast path, keeping the baseline
    honest.
    """
    program = interp.program
    instrs = program.instrs
    n_instrs = len(instrs)
    text_base = program.text_base
    steps = 0
    while not interp.halted and steps < max_steps:
        index = interp.pc_index
        if not 0 <= index < n_instrs:
            raise AssertionError("pc out of text segment")
        instr = instrs[index]
        mnemonic = instr.mnemonic
        pc = text_base + index * WORD_BYTES
        next_index = index + 1
        dest_value = 0
        src_values = [interp._read_source(d)[0] for d in instr.srcs]
        if mnemonic in _SEED_ALU:
            rhs = src_values[1] if len(src_values) == 2 else wrap32(instr.imm)
            dest_value = eval_binop(_SEED_ALU[mnemonic], src_values[0], rhs)
        elif mnemonic in _SEED_CMP:
            rhs = src_values[1] if len(src_values) == 2 else wrap32(instr.imm)
            dest_value = eval_icmp(_SEED_CMP[mnemonic], src_values[0], rhs)
        elif mnemonic == "LUI":
            dest_value = wrap32(instr.imm << 12)
        elif mnemonic == "RMOV":
            dest_value = src_values[0]
        elif mnemonic == "LD":
            dest_value = interp._load_word(wrap32(src_values[0] + instr.imm))
        elif mnemonic == "ST":
            addr = wrap32(src_values[1] + instr.imm * WORD_BYTES)
            interp._store_word(addr, src_values[0])
            dest_value = src_values[0]
        elif mnemonic == "BEZ" or mnemonic == "BNZ":
            cond = src_values[0] == 0
            if cond if mnemonic == "BEZ" else not cond:
                next_index = index + instr.imm
        elif mnemonic == "J":
            next_index = index + instr.imm
        elif mnemonic == "JAL":
            next_index = index + instr.imm
            dest_value = pc + WORD_BYTES
        elif mnemonic == "JR":
            next_index = program.index_of_pc(src_values[0])
        elif mnemonic == "SPADD":
            interp.sp = wrap32(interp.sp + instr.imm)
            dest_value = interp.sp
        elif mnemonic == "OUT":
            interp.output.append(src_values[0])
            dest_value = src_values[0]
        elif mnemonic == "HALT":
            interp.halted = True
        interp._write_dest(dest_value)
        interp.seq += 1
        interp.pc_index = next_index
        steps += 1
    return steps


def _timed_functional(binary, compiled, repeats, max_steps):
    """Best-of-``repeats`` functional run; returns (result, seconds)."""
    best_s = None
    best = None
    for _ in range(repeats):
        interp = binary.interpreter(collect_trace=False, compiled=compiled)
        start = time.perf_counter()
        result = interp.run(max_steps)
        elapsed = time.perf_counter() - start
        if best_s is None or elapsed < best_s:
            best_s = elapsed
            best = result
    return best, best_s


def bench_predecode(workload="branchy_div", repeats=3, max_steps=50_000_000):
    """Price the functional hot paths, per registered ISA.

    Two comparisons on one bench workload:

    * the historical one — STRAIGHT-RE+ through the pre-decoded baseline
      ``run()`` vs. a reference loop that re-derives the decode on every
      dynamic instruction (the seed behaviour), reported as ``speedup``;
    * per registered ISA (via the descriptor registry) — the ISA's default
      evaluation binary through the pre-decoded baseline vs. the
      threaded-code compiled blocks (:mod:`repro.fastpath`), reported in
      ``per_isa`` as ``speedup_compiled``.

    Every pair is best-of-``repeats`` and asserts identical output + step
    count, so the speedups are only reported while the paths agree.
    """
    binaries = build(BENCH_WORKLOADS[workload]).all()
    binary = binaries["STRAIGHT-RE+"]

    fast_result, fast_s = _timed_functional(binary, False, repeats, max_steps)

    seed_s = None
    seed_steps = None
    seed_output = None
    for _ in range(repeats):
        interp = binary.interpreter(collect_trace=False, compiled=False)
        start = time.perf_counter()
        steps = _seed_style_run(interp, max_steps)
        elapsed = time.perf_counter() - start
        if seed_s is None or elapsed < seed_s:
            seed_s = elapsed
            seed_steps = steps
            seed_output = list(interp.output)

    if seed_steps != fast_result.steps or seed_output != fast_result.output:
        raise AssertionError(
            f"{workload}: pre-decoded and per-step-decode runs diverged "
            f"(steps {fast_result.steps} vs {seed_steps})"
        )

    per_isa = []
    for descriptor in isa_registry.descriptors():
        label = descriptor.default_label
        isa_binary = binaries[label]
        base, base_s = _timed_functional(isa_binary, False, repeats,
                                         max_steps)
        comp, comp_s = _timed_functional(isa_binary, True, repeats,
                                         max_steps)
        if (base.steps, base.output) != (comp.steps, comp.output):
            raise AssertionError(
                f"{workload}/{descriptor.name}: baseline and compiled "
                f"runs diverged (steps {base.steps} vs {comp.steps})"
            )
        per_isa.append({
            "isa": descriptor.name,
            "binary": label,
            "steps": comp.steps,
            "wall_s": {
                "baseline": round(base_s, 6),
                "compiled": round(comp_s, 6),
            },
            "steps_per_sec": {
                "baseline": round(base.steps / base_s),
                "compiled": round(comp.steps / comp_s),
            },
            "speedup_compiled": round(base_s / comp_s, 3),
        })

    return {
        "workload": workload,
        "binary": "STRAIGHT-RE+",
        "steps": fast_result.steps,
        "wall_s": {
            "predecoded": round(fast_s, 6),
            "decode_per_step": round(seed_s, 6),
        },
        "steps_per_sec": {
            "predecoded": round(fast_result.steps / fast_s),
            "decode_per_step": round(seed_steps / seed_s),
        },
        "speedup": round(seed_s / fast_s, 3),
        "per_isa": per_isa,
    }


# -- fastpath scorecard: compiled fast-forward + sampled timing -----------------

#: Accuracy schedule.  Long windows are the load-bearing choice: the
#: residual error of a re-simulated segment is a fixed settling transient
#: at the window start (the pipeline re-converges to its steady rhythm),
#: so it is amortized by window length — W500 leaves a -6.5% bias on
#: dhrystone/STRAIGHT-4way, W2000 takes it under 1%.  The period keeps one
#: window per 8k instructions; sparser schedules alias with CoreMark's
#: long loop phases (P12000 measured up to +-25% per-seed swings).
FASTPATH_ACCURACY_PARAMS = {
    "period": 8000, "window": 2000, "warmup": 600, "cooldown": 300,
}

#: Speed schedule: the same long windows, spread 8x thinner (~4.5%
#: coverage) for the order-of-magnitude workloads where wall-clock is the
#: point.  Dhrystone's homogeneity keeps the estimator tight at n~60.
FASTPATH_SPEED_PARAMS = {
    "period": 64000, "window": 2000, "warmup": 600, "cooldown": 300,
}


def _fastpath_cell(workload, iterations, binary_label, config, params,
                   seed=0, max_steps=50_000_000):
    """One fastpath scorecard cell: full baseline vs. compiled+sampled.

    The baseline leg reproduces the pre-fastpath end-to-end cost — trace
    collection on the uncompiled interpreter plus a full cycle-accurate
    run.  The fast leg is :func:`~repro.harness.sampling.simulate_sampled`
    on the compiled interpreter.  Both use warm caches (the paper's
    steady-state measurement mode).
    """
    from repro.harness.sampling import SamplingParams, simulate_sampled
    from repro.workloads import build_workload

    binary = build_workload(workload, iterations=iterations).all()[
        binary_label]

    start = time.perf_counter()
    interp = binary.interpreter(collect_trace=True, compiled=False)
    result = interp.run(max_steps)
    if result.status == "limit":
        raise AssertionError(f"{workload}: baseline run hit max_steps")
    core = OoOCore(config)
    stats = core.run(interp.trace, warm=True)
    baseline_s = time.perf_counter() - start
    full_ipc = stats.instructions / stats.cycles

    sampling_params = SamplingParams(seed=seed, **params)
    start = time.perf_counter()
    sampled = simulate_sampled(binary, config, sampling_params,
                               max_steps=max_steps, warm_caches=True)
    fast_s = time.perf_counter() - start
    meta = sampled.stats.sampling
    sampled_ipc = sampled.stats.instructions / sampled.stats.cycles
    ipc_ci = meta.get("ipc_ci95")
    return {
        "workload": workload,
        "iterations": iterations,
        "binary": binary_label,
        "config": config.name,
        "instructions": stats.instructions,
        "mode": meta["mode"],
        "windows": meta.get("windows"),
        "coverage": round(meta.get("coverage", 1.0), 5),
        "sampling": meta["params"],  # includes the seed: reproducible
        "ipc": {
            "full": round(full_ipc, 5),
            "sampled": round(sampled_ipc, 5),
            "err_pct": round((sampled_ipc / full_ipc - 1) * 100, 3),
            "ci95_rel_pct": (None if not ipc_ci else
                             round(ipc_ci / meta["ipc_mean"] * 100, 3)),
        },
        "wall_s": {
            "baseline_full": round(baseline_s, 3),
            "compiled_sampled": round(fast_s, 3),
        },
        "speedup": round(baseline_s / fast_s, 2),
    }


#: Smoke-mode dhrystone scale: big enough for ~18 measurement windows
#: under the accuracy schedule, small enough to keep the CI job fast.
_SMOKE_ACCURACY_ITERATIONS = 150


def bench_fastpath(smoke=False, seed=0):
    """The ``BENCH_fastpath.json`` scorecard: golden + stress + speed cells.

    * **accuracy** cells pit sampled against full simulation on the golden
      grid — dhrystone at evaluation scale x every registered ISA x both
      machine widths, under :data:`FASTPATH_ACCURACY_PARAMS`.  Dhrystone's
      steady loop satisfies the SMARTS stationarity assumptions at our run
      lengths, so this is the grid the <=2% IPC gate applies to.
    * **stress** cells (full mode only) run the same grid on CoreMark,
      whose phase structure exposes the two known estimator limits: the
      per-window IPC heterogeneity of the matmul/CRC phases (honest ci95
      bars of 4-10%) and the BB rhythm bias (see DESIGN.md's error model).
      They are reported with error bars, not gated.
    * **speed** cells run order-of-magnitude-larger workloads under
      :data:`FASTPATH_SPEED_PARAMS`, where the compiled fast-forward and
      sparse windows deliver the end-to-end wall-clock multiplier.

    ``smoke`` shrinks the gated grid to a CI-sized subset (dhrystone
    2-way, one speed cell).  The report carries every seed and schedule
    parameter, so each number is reproducible byte-for-byte.
    """
    from repro.workloads import WORKLOADS

    accuracy = []
    stress = []
    speed = []
    wl = WORKLOADS["dhrystone"]
    if smoke:
        for descriptor in isa_registry.descriptors():
            label = descriptor.default_label
            config = descriptor.config_factories["2way"]()
            accuracy.append(_fastpath_cell(
                "dhrystone", _SMOKE_ACCURACY_ITERATIONS, label, config,
                FASTPATH_ACCURACY_PARAMS, seed=seed,
            ))
        speed.append(_fastpath_cell(
            "dhrystone", wl.large_iterations, "SS",
            isa_registry.get("riscv").config_factories["4way"](),
            FASTPATH_SPEED_PARAMS, seed=seed,
        ))
    else:
        for descriptor in isa_registry.descriptors():
            label = descriptor.default_label
            for klass in ("2way", "4way"):
                config = descriptor.config_factories[klass]()
                accuracy.append(_fastpath_cell(
                    "dhrystone", wl.large_iterations, label, config,
                    FASTPATH_ACCURACY_PARAMS, seed=seed,
                ))
                stress.append(_fastpath_cell(
                    "coremark", WORKLOADS["coremark"].large_iterations,
                    label, config, FASTPATH_ACCURACY_PARAMS, seed=seed,
                ))
        for isa, klass, label in (("riscv", "4way", "SS"),
                                  ("straight", "4way", "STRAIGHT-RE+")):
            speed.append(_fastpath_cell(
                "dhrystone", wl.large_iterations * 10, label,
                isa_registry.get(isa).config_factories[klass](),
                FASTPATH_SPEED_PARAMS, seed=seed,
            ))

    report = {
        "seed": seed,
        "accuracy_params": dict(FASTPATH_ACCURACY_PARAMS),
        "speed_params": dict(FASTPATH_SPEED_PARAMS),
        "accuracy": accuracy,
        "speed": speed,
        "max_abs_ipc_err_pct": max(
            abs(c["ipc"]["err_pct"]) for c in accuracy),
        "min_accuracy_speedup": min(c["speedup"] for c in accuracy),
        "max_speedup": max(c["speedup"] for c in speed),
    }
    if stress:
        report["stress"] = stress
        report["max_stress_abs_ipc_err_pct"] = max(
            abs(c["ipc"]["err_pct"]) for c in stress)
    return report


# -- observability overhead ----------------------------------------------------


#: Shortest timed sample of the gated ``plain``/``bus_empty`` pair.  One
#: run of a bench trace takes about 0.1 s, and on a shared host single runs
#: spread by tens of percent, far too coarse to resolve a 5% budget.
MIN_SAMPLE_S = 0.5


def bench_observability(config_name="SS-2way", repeats=3,
                        workload="branchy_div"):
    """Price the observability subsystem against the plain timing run.

    Four modes over the same trace and config, best-of-``repeats`` each:

    * ``plain`` — no observer argument at all (the default path);
    * ``bus_empty`` — an :class:`~repro.obs.ObserverBus` with no sinks
      attached; the engine normalizes it to ``None``, so this prices the
      "tracing compiled in but disabled" promise the CI job gates at ≤5%;
    * ``kanata`` — the pipeline-log writer attached;
    * ``attribution`` — the stall accountant attached.

    The gated pair runs one code path twice, so its samples are long and
    interleaved: each sample runs the trace back to back on fresh cores,
    built before its timer starts, for at least :data:`MIN_SAMPLE_S`, and
    the two sides alternate sample by sample, each going first every other
    round, so both see the same moments of host load.  Wall times are per
    run.  All four modes must agree on the cycle count bit-exactly;
    enabled-mode overheads are reported but not gated.
    """
    from repro.obs import KanataWriter, ObserverBus, StallAttributionAccountant

    factory = ALL_CORES[config_name]
    probe = factory()
    label = isa_registry.for_config(probe).label_for_config(probe)
    trace = _trace_for(BENCH_WORKLOADS[workload], label)

    def sample(observer_factory, runs=1):
        """Run ``trace`` ``runs`` times; returns (stats, seconds per run)."""
        cores = [OoOCore(factory()) for _ in range(runs)]
        observers = [observer_factory() if observer_factory else None
                     for _ in range(runs)]
        start = time.perf_counter()
        for core, observer in zip(cores, observers):
            stats = core.run(trace, observer=observer)
        return stats, (time.perf_counter() - start) / runs

    def best(samples):
        return min(samples, key=lambda run: run[1])

    # A first run, not counted, warms the engine up and sizes the samples.
    _, single_s = sample(None)
    runs = max(1, math.ceil(MIN_SAMPLE_S / single_s))
    plain_runs, empty_runs = [], []
    for round_index in range(repeats):
        order = [(plain_runs, None), (empty_runs, ObserverBus)]
        if round_index % 2:
            order.reverse()
        for samples, observer_factory in order:
            samples.append(sample(observer_factory, runs))
    plain_stats, plain_s = best(plain_runs)
    empty_stats, empty_s = best(empty_runs)
    kanata_stats, kanata_s = best(
        [sample(lambda: ObserverBus([KanataWriter()]))
         for _ in range(repeats)])
    attr_stats, attr_s = best(
        [sample(lambda: ObserverBus([StallAttributionAccountant()]))
         for _ in range(repeats)])
    cycle_counts = {
        "plain": plain_stats.cycles,
        "bus_empty": empty_stats.cycles,
        "kanata": kanata_stats.cycles,
        "attribution": attr_stats.cycles,
    }
    if len(set(cycle_counts.values())) != 1:
        raise AssertionError(
            f"{workload}: cycle drift across observability modes: "
            f"{cycle_counts}"
        )
    return {
        "workload": workload,
        "config": config_name,
        "cycles": plain_stats.cycles,
        "instructions": plain_stats.instructions,
        "runs_per_sample": runs,
        "wall_s": {
            "plain": round(plain_s, 6),
            "bus_empty": round(empty_s, 6),
            "kanata": round(kanata_s, 6),
            "attribution": round(attr_s, 6),
        },
        "overhead_disabled_pct": round((empty_s - plain_s) / plain_s * 100, 2),
        "overhead_kanata_pct": round((kanata_s - plain_s) / plain_s * 100, 2),
        "overhead_attribution_pct": round(
            (attr_s - plain_s) / plain_s * 100, 2),
    }


# -- sweep-cache benchmark -----------------------------------------------------


def _sweep_grid(workloads):
    """A reduced timing grid: each bench workload on every ISA's 2-way core."""
    from repro.harness.sweep import SweepTask

    tasks = []
    for name in workloads:
        source = BENCH_WORKLOADS[name]
        for descriptor in isa_registry.descriptors():
            config = descriptor.config_factories["2way"]()
            target = next(iter(descriptor.targets))
            tasks.append(
                SweepTask(
                    f"bench/{name}/{config.name}",
                    name,
                    config=config,
                    compile_opts={"target": target, "source_text": source},
                )
            )
    return tasks


def bench_sweep(jobs=1, cache_dir=None, workloads=None):
    """Two-pass sweep over a reduced grid: cold fill, then warm from cache.

    Exercises the whole engine — compile-artifact cache, result cache,
    pre-pass serving — and reports wall-clock, simulated cycles, and cache
    hit/miss counts for both passes.  With ``cache_dir=None`` the
    cache lives in a temporary directory that is deleted afterwards, so
    benchmarking never pollutes (or is flattered by) the user's real cache.
    """
    from repro.harness import cache as cache_mod
    from repro.harness.sweep import run_sweep

    names = list(workloads) if workloads else sorted(BENCH_WORKLOADS)
    tasks = _sweep_grid(names)

    tempdir = None
    if cache_dir is None:
        tempdir = tempfile.TemporaryDirectory(prefix="straight-bench-cache-")
        cache_dir = tempdir.name
    previous = cache_mod.swap_state()
    cache_mod.configure(cache_dir=cache_dir, enabled=True)
    try:
        passes = []
        for label in ("cold", "warm"):
            cache_mod.reset_cache_stats()
            report = run_sweep(tasks, jobs=jobs, raise_on_error=True)
            cycles = sum(
                p["stats"]["cycles"] for p in report.results.values()
            )
            passes.append(
                {
                    "pass": label,
                    "tasks": len(tasks),
                    "wall_s": round(report.wall_s, 6),
                    "cycles_simulated": cycles,
                    "results_from_cache": report.manifest["cache_served"],
                    "result_hit_rate": round(report.result_hit_rate(), 4),
                    "cache": report.cache,
                }
            )
        cold, warm = passes
        return {
            "jobs": jobs,
            "grid": [t.task_id for t in tasks],
            "passes": passes,
            "warm_speedup": round(cold["wall_s"] / max(warm["wall_s"], 1e-9), 2),
        }
    finally:
        cache_mod.swap_state(previous)
        if tempdir is not None:
            tempdir.cleanup()


def bench_smoke(config_name="SS-2way", repeats=3, workloads=None,
                sweep_jobs=None):
    """The smoke benchmark over all (or the named) bench workloads."""
    names = list(workloads) if workloads else sorted(BENCH_WORKLOADS)
    if sweep_jobs is None:
        sweep_jobs = min(2, os.cpu_count() or 1)
    return {
        "config": config_name,
        "repeats": repeats,
        "predecode": bench_predecode(names[0], repeats),
        "sweep": bench_sweep(jobs=sweep_jobs, workloads=names),
        "observability": bench_observability(config_name, repeats, names[0]),
    }
