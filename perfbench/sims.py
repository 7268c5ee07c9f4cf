"""The simulation workloads: ``full_grid`` and ``sampled_large``.

Both follow the source paper's evaluation (§V): Dhrystone and CoreMark on
the default binary of every registered ISA (SS on RV32IM, STRAIGHT-RE+ and
BB), with every cell's program output checked against the cross-validated
SS output.

* ``full_grid``: full ``simulate(..., warm_caches=True)``, the sweep
  engine's mode, on the 2-way and 4-way cores at paper scale
  (``Workload.default_iterations``; the seed moves Dhrystone's iteration
  count within ±2): 12 cells.  Where a program's iteration count matches
  ``reference.json`` (CoreMark always, Dhrystone for every fifth seed from
  0), each cell's ``SimStats`` must equal the reference.
* ``sampled_large``: ``simulate_sampled(..., warm_caches=True)`` under
  ``FASTPATH_SPEED_PARAMS`` on the 4-way cores, at about 1.4 to 1.7 million
  dynamic instructions per cell, with the seed as the sampling seed: 6
  cells.  ``sampling.ipc_err_pct`` compares each cell with its full-run IPC
  in ``reference.json``.

A run builds and cross-validates its inputs ``SETUP_REPEATS`` times, then
simulates whole passes over the grid until ``--seconds`` have elapsed.
Host time is CPU time scaled to a reference host speed (hostclock.py).
``setup_s`` is the median set-up; a cell's latency is its median over the
passes, and ``sim_kips`` is one pass's instructions over the sum of those
latencies.  Cycles, IPC and the ``uarch.*`` counters are simulated and
repeat exactly for a seed.
"""

import hashlib
import json
import os
import statistics
import time

import repro.core.api as api
import repro.harness.sampling as sampling
from repro import isa as isa_registry
from repro.harness import cache as cache_mod
from repro.harness.bench import FASTPATH_SPEED_PARAMS
from repro.workloads import WORKLOADS
from repro.workloads.common import build_workload, clear_build_cache

import common
import layers
from hostclock import ReferenceClock
from spans import Tracer

PROGRAMS = ("dhrystone", "coremark")
WIDTHS = {"full_grid": ("2way", "4way"), "sampled_large": ("4way",)}
SETUP_REPEATS = 2
#: full_grid's band: Dhrystone's offset from its default by ``seed % 5``.
#: CoreMark's default of 3 iterations is too coarse to move.
DHRYSTONE_OFFSETS = (0, 1, -1, 2, -2)
#: sampled_large's scale, about 40 times a full_grid cell and 22 to 27
#: windows under the speed schedule.  Fixed, because reference.json holds
#: one full-run IPC per cell.
SAMPLED_ITERATIONS = {"dhrystone": 1300, "coremark": 45}
REFERENCE = os.path.join(common.HERE, "reference.json")


class Cell:
    """One program on one ISA's default binary and one of its cores."""

    def __init__(self, program, descriptor, width):
        self.program = program
        self.label = descriptor.default_label
        self.make_config = descriptor.config_factories[width]
        self.id = f"{program}/{self.label}/{self.make_config().name}"


def grid(workload):
    return [Cell(program, descriptor, width)
            for program in PROGRAMS
            for descriptor in isa_registry.descriptors()
            for width in WIDTHS[workload]]


def iterations_for(workload, seed):
    """Each program's iteration count in this workload for ``seed``."""
    if workload == "sampled_large":
        return dict(SAMPLED_ITERATIONS)
    offset = DHRYSTONE_OFFSETS[seed % len(DHRYSTONE_OFFSETS)]
    return {"dhrystone": WORKLOADS["dhrystone"].default_iterations + offset,
            "coremark": WORKLOADS["coremark"].default_iterations}


def setup(iterations):
    """Build and cross-validate each program: ``{program: (build, SS output)}``."""
    clear_build_cache()
    inputs = {}
    for program, count in iterations.items():
        built = build_workload(program, iterations=count)
        inputs[program] = (built, api.run_functional(built.riscv).output)
    return inputs


def simulate(workload, cell, binary, seed):
    config = cell.make_config()
    if workload == "sampled_large":
        params = sampling.SamplingParams(seed=seed, **FASTPATH_SPEED_PARAMS)
        return sampling.simulate_sampled(binary, config, params,
                                         warm_caches=True)
    return api.simulate(binary, config, warm_caches=True)


def stats_digest(stats):
    text = json.dumps(stats.as_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(workload, iterations):
    """``{cell id: reference}`` for the cells whose inputs reference.json holds.

    A reference made with another toolchain tag or cache schema is reported
    as stale, and nothing is compared against it.
    """
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    made = [reference["toolchain_tag"], reference["schema_version"]]
    current = [cache_mod.TOOLCHAIN_TAG, cache_mod.SCHEMA_VERSION]
    if made != current:
        common.log(f"reference.json is stale (made with {made}, the toolchain "
                   f"is {current}): simulated results are not compared; "
                   "regenerate it with perfbench/make_reference.py")
        return {}
    section = reference[workload]
    return {cell_id: cell for cell_id, cell in section["cells"].items()
            if section["iterations"][cell["program"]]
            == iterations.get(cell["program"])}


def check(workload, cell, result, expected, reference):
    problems = []
    if list(result.output) != list(expected):
        problems.append(f"output {list(result.output)} != cross-validated "
                        f"SS output {list(expected)}")
    ref = reference.get(cell.id)
    if (workload == "full_grid" and ref is not None
            and stats_digest(result.stats) != ref["digest"]):
        problems.append(f"SimStats differ from reference.json (cycles "
                        f"{result.stats.cycles}, reference {ref['cycles']})")
    if workload == "sampled_large" and result.stats.sampling["mode"] != "sampled":
        problems.append("too short to sample: fell back to a full run")
    return problems


class Passes:
    """Per-cell host times and the last stats of whole passes over a grid."""

    def __init__(self):
        self.latency_s = {}
        self.cpu_s = 0.0
        self.stats = {}
        self.wall_s = 0.0

    def cell_latencies_ms(self):
        """Each cell's median over the passes, in scaled milliseconds."""
        return [statistics.median(samples) * 1e3
                for samples in self.latency_s.values()]

    def sim_kips(self):
        """One pass's instructions over the sum of the cell latencies."""
        instructions = sum(stats.instructions for stats in self.stats.values())
        return instructions / sum(self.cell_latencies_ms())


def run_passes(workload, cells, inputs, seed, seconds, tally, reference,
               clock, tracer=None):
    """Simulate whole passes over ``cells`` until ``seconds`` have elapsed."""
    passes = Passes()
    start = time.perf_counter()
    while True:
        for cell in cells:
            built, expected = inputs[cell.program]
            binary = built.all()[cell.label]
            if tracer is None:
                result, scaled, cpu = clock.time(
                    lambda: simulate(workload, cell, binary, seed))
            else:
                with tracer.span("cell", cell.id):
                    result, scaled, cpu = clock.time(
                        lambda: simulate(workload, cell, binary, seed))
            passes.latency_s.setdefault(cell.id, []).append(scaled)
            passes.cpu_s += cpu
            passes.stats[cell.id] = result.stats
            tally.record(cell.id, check(workload, cell, result, expected,
                                        reference), wrong=True)
            # The result's interpreter holds the whole trace: release it
            # before the next cell, so peak memory is one cell's.
            del result
        if time.perf_counter() - start >= seconds:
            break
    passes.wall_s = time.perf_counter() - start
    return passes


def run(workload, seed, seconds, traced, workdir):
    """One run of ``workload``: ``(tally, metric values)``."""
    cells = grid(workload)
    iterations = iterations_for(workload, seed)
    reference = load_reference(workload, iterations)
    tally = common.Tally()
    clock = ReferenceClock()
    if traced:
        return tally, run_traced(workload, cells, iterations, seed, tally,
                                 reference, workdir, clock)
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, scaled, _cpu = clock.time(lambda: setup(iterations))
        setups.append(scaled)
    passes = run_passes(workload, cells, inputs, seed, seconds, tally,
                        reference, clock)
    latencies = passes.cell_latencies_ms()
    tail_ms, tail_pct, samples = common.tail(latencies)
    rounds = len(next(iter(passes.latency_s.values())))
    instructions = rounds * sum(s.instructions for s in passes.stats.values())
    common.log(f"{workload} seed {seed}: {rounds} pass(es) over {samples} "
               f"cells in {passes.wall_s:.1f} s, iterations {iterations}; "
               f"set-ups {[round(s, 2) for s in setups]} s; the tail is "
               f"p{tail_pct:.0f} of the per-cell medians; unscaled "
               f"{instructions / passes.cpu_s / 1e3:.1f} kinstr per CPU s; "
               f"calibration walks {statistics.median(clock.walks) * 1e3:.2f} "
               f"ms at the median")
    return tally, {
        "setup_s": statistics.median(setups),
        "sim_kips": passes.sim_kips(),
        "peak_rss_mb": common.peak_rss_mb(),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
    }


def run_traced(workload, cells, iterations, seed, tally, reference, workdir,
               clock):
    """Per-layer metrics: one pass untraced, then the same pass traced."""
    tracer = Tracer()
    with layers.installed(tracer):
        with tracer.span("setup"):
            inputs = setup(iterations)
    plain = run_passes(workload, cells, inputs, seed, 0, tally, reference,
                       clock)
    with layers.installed(tracer):
        timed = run_passes(workload, cells, inputs, seed, 0, tally, reference,
                           clock, tracer)
    for cell in cells:
        same = (stats_digest(timed.stats[cell.id])
                == stats_digest(plain.stats[cell.id]))
        tally.record(f"{cell.id} traced",
                     [] if same else ["tracing changed SimStats"], wrong=True)
    values = dict.fromkeys(common.PER_LAYER, 0)
    values.update(layers.layer_metrics(tracer))
    values.update(simulated_counters(workload, cells, timed, reference))
    _tail, values["latency.tail_pct"], values["latency.samples"] = (
        common.tail(plain.cell_latencies_ms()))
    values["failed_ratio"] = tally.failed_ratio
    values["trace.overhead_pct"] = (timed.wall_s / plain.wall_s - 1) * 100
    values["trace.unattributed_pct"] = layers.unattributed_pct(tracer, "cell")
    common.log(f"{workload} seed {seed}: one pass {plain.wall_s:.2f} s "
               f"untraced, {timed.wall_s:.2f} s traced")
    tracer.dump(os.path.join(workdir, f"spans-{workload}-seed{seed}.json"),
                {"metrics": values})
    return values


def simulated_counters(workload, cells, passes, reference):
    """Simulated totals over one pass; they repeat exactly for a seed."""
    stats = [passes.stats[cell.id] for cell in cells]
    values = {
        "uarch.cycles": sum(s.cycles for s in stats),
        "uarch.branch_mispredicts": sum(s.branch_mispredicts for s in stats),
        "uarch.l1d_misses": sum(s.cache_stats.get("l1d_misses", 0)
                                for s in stats),
    }
    if workload == "sampled_large":
        meta = [s.sampling for s in stats]
        values["sampling.windows"] = sum(m.get("windows", 0) for m in meta)
        values["sampling.coverage"] = (
            sum(m.get("measured_instructions", 0) for m in meta)
            / sum(m["total_instructions"] for m in meta))
        errors = [abs(passes.stats[cell.id].ipc
                      / reference[cell.id]["full_ipc"] - 1) * 100
                  for cell in cells if cell.id in reference]
        values["sampling.ipc_err_pct"] = max(errors, default=0.0)
    return values
