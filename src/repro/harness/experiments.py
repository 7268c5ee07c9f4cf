"""One runner per paper table/figure (see DESIGN.md's experiment index).

Every function returns a dict with a ``rows`` list (structured results) and
a ``text`` rendering that prints the same series the paper reports.
Performance is reported as the paper does: the inverse of execution cycles,
normalized to the SS model of the same class.

Since PR 4 every figure declares its grid points as
:class:`~repro.harness.sweep.SweepTask` descriptors and submits them to the
sweep engine (:func:`~repro.harness.sweep.ensure_results`), so one
``reproduce_paper.py --jobs N`` invocation fans the whole deduplicated grid
out across cores and any later invocation is served from the persistent
result cache.  :func:`grid_tasks` exposes the same declarations to the
``straight sweep`` CLI.
"""

from repro.core.configs import ss_2way, straight_2way, ss_4way, straight_4way, table1_rows
from repro.harness.cache import canonical_key
from repro.harness.reporting import format_table, format_bars
from repro.harness.sweep import (
    SweepTask,
    ensure_results,
    metrics_view,
    payload_or_raise,
    unique_tasks,
)
from repro.uarch.stats import SimStats

_WORKLOADS = ("dhrystone", "coremark")
_BINARIES = ("SS", "STRAIGHT-RAW", "STRAIGHT-RE+")


def _config_tag(config):
    """A short stable id for a config's full timing identity."""
    return f"{config.name}@{canonical_key(config.cache_key())[:10]}"


def _iterations_tag(iterations):
    """The id suffix of an explicit iteration count ('' for the default)."""
    return "" if iterations is None else f"/it{iterations}"


def timing_task(workload, binary_label, config, max_distance=1023,
                iterations=None):
    """One registry timing grid point."""
    return SweepTask(
        f"{workload}/{binary_label}/md{max_distance}/{_config_tag(config)}"
        f"{_iterations_tag(iterations)}",
        workload,
        binary_label=binary_label,
        config=config,
        iterations=iterations,
        max_distance=max_distance,
    )


def functional_task(workload, binary_label, max_distance=1023,
                    iterations=None):
    """One functional (interpreter-metrics) grid point."""
    return SweepTask(
        f"func/{workload}/{binary_label}/md{max_distance}"
        f"{_iterations_tag(iterations)}",
        workload,
        binary_label=binary_label,
        iterations=iterations,
        max_distance=max_distance,
        kind="functional",
    )


def attribution_task(workload, binary_label, config, max_distance=1023,
                     iterations=None):
    """One timing grid point with the stall-attribution accountant attached."""
    return SweepTask(
        f"attr/{workload}/{binary_label}/md{max_distance}/{_config_tag(config)}"
        f"{_iterations_tag(iterations)}",
        workload,
        binary_label=binary_label,
        config=config,
        iterations=iterations,
        max_distance=max_distance,
        attribution=True,
    )


def _stats_of(results, task):
    """The stats dict of one finished timing task."""
    return payload_or_raise(results[task.task_id], task.task_id)["stats"]


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------


def table1():
    """Table I: evaluated models and their parameters."""
    rows = table1_rows()
    return {"rows": rows, "text": format_table(rows, title="Table I: Evaluated Models")}


# ---------------------------------------------------------------------------
# Figs. 11/12: relative performance
# ---------------------------------------------------------------------------


def _performance_tasks(ss_factory, straight_factory):
    tasks = []
    for workload in _WORKLOADS:
        tasks.append(timing_task(workload, "SS", ss_factory()))
        tasks.append(timing_task(workload, "STRAIGHT-RAW", straight_factory()))
        tasks.append(timing_task(workload, "STRAIGHT-RE+", straight_factory()))
    return tasks


def _performance_figure(ss_factory, straight_factory, label):
    tasks = _performance_tasks(ss_factory, straight_factory)
    results = ensure_results(tasks)
    rows = []
    for offset, workload in enumerate(_WORKLOADS):
        per_model = tasks[3 * offset:3 * offset + 3]
        stats = [_stats_of(results, task) for task in per_model]
        base = stats[0]["cycles"]
        for name, stat in zip(_BINARIES, stats):
            rows.append(
                {
                    "workload": workload,
                    "model": name,
                    "cycles": stat["cycles"],
                    "relative_perf": round(base / stat["cycles"], 4),
                    "ipc": round(stat["ipc"], 3),
                }
            )
    series = [
        (f"{r['workload'][:5]}/{r['model']}", r["relative_perf"]) for r in rows
    ]
    return {
        "rows": rows,
        "text": format_bars(series, title=f"{label}: relative performance (1/cycles, SS = 1.0)"),
    }


def fig11_performance_4way():
    """Fig. 11: SS vs STRAIGHT RAW vs RE+, 4-way models."""
    return _performance_figure(ss_4way, straight_4way, "Fig. 11 (4-way)")


def fig12_performance_2way():
    """Fig. 12: SS vs STRAIGHT RAW vs RE+, 2-way models."""
    return _performance_figure(ss_2way, straight_2way, "Fig. 12 (2-way)")


# ---------------------------------------------------------------------------
# Fig. 13: effect of the misprediction penalty
# ---------------------------------------------------------------------------


def _fig13_grid():
    """[(display name, task)] in figure order; SS-2way is the baseline."""
    grid = []
    for way, ss_f, st_f in (
        ("2-way", ss_2way, straight_2way),
        ("4-way", ss_4way, straight_4way),
    ):
        grid.append((f"SS {way}", timing_task("coremark", "SS", ss_f())))
        grid.append(
            (
                f"SS no-penalty {way}",
                timing_task(
                    "coremark", "SS",
                    ss_f(ideal_recovery=True, name=f"SS-{way}-nopenalty"),
                ),
            )
        )
        grid.append(
            (f"STRAIGHT RE+ {way}",
             timing_task("coremark", "STRAIGHT-RE+", st_f()))
        )
    return grid


def fig13_mispredict_penalty():
    """Fig. 13: SS, SS-no-penalty, STRAIGHT RE+ on CoreMark, both classes.

    Normalized to SS-2way, exactly as the paper's figure.
    """
    grid = _fig13_grid()
    results = ensure_results([task for _, task in grid])
    base_2way = _stats_of(results, grid[0][1])["cycles"]
    runs = []
    for name, task in grid:
        stats = _stats_of(results, task)
        runs.append(
            {
                "model": name,
                "cycles": stats["cycles"],
                "relative_perf": round(base_2way / stats["cycles"], 4),
                "recovery_stall_cycles": stats["recovery_stall_cycles"],
                "mispredicts": stats["branch_mispredicts"],
            }
        )
    series = [(r["model"], r["relative_perf"]) for r in runs]
    return {
        "rows": runs,
        "text": format_bars(
            series, title="Fig. 13: mispredict penalty effect (CoreMark, SS-2way = 1.0)"
        ),
    }


def _attribution_grid(workload="coremark"):
    """[(display name, attributed task)] for the Fig. 13 explanation."""
    grid = []
    for way, ss_f, st_f in (
        ("2-way", ss_2way, straight_2way),
        ("4-way", ss_4way, straight_4way),
    ):
        grid.append((f"SS {way}",
                     attribution_task(workload, "SS", ss_f())))
        grid.append((f"STRAIGHT RE+ {way}",
                     attribution_task(workload, "STRAIGHT-RE+", st_f())))
    return grid


def attribution_breakdown(workload="coremark"):
    """Top-down stall attribution: *why* Fig. 13's gap exists.

    Charges every issue slot of every cycle to exactly one bucket (see
    :mod:`repro.obs.attribution`) on both ISAs and reports, next to the
    bucket fractions, the bad-speculation slots burned *per mispredict* —
    the per-event recovery cost that separates SS's RMT-restoring ROB walk
    from STRAIGHT's one-read recovery.
    """
    grid = _attribution_grid(workload)
    results = ensure_results([task for _, task in grid])
    rows = []
    for name, task in grid:
        payload = payload_or_raise(results[task.task_id], task.task_id)
        stats = payload["stats"]
        attribution = payload["attribution"]
        total = attribution["slots_charged"]
        fractions = attribution["fractions"]
        mispredicts = stats["branch_mispredicts"]
        rows.append(
            {
                "model": name,
                "cycles": stats["cycles"],
                "slots": total,
                "conserved": attribution["conserved"],
                "retiring": fractions["slots_retiring"],
                "rmov": fractions["slots_rmov_overhead"],
                "frontend": fractions["slots_frontend_latency"],
                "bad_spec": fractions["slots_bad_speculation"],
                "mem": fractions["slots_backend_memory"],
                "core": fractions["slots_backend_core"],
                "mispredicts": mispredicts,
                "bad_spec_slots_per_mispredict": round(
                    attribution["buckets"]["slots_bad_speculation"]
                    / mispredicts, 2) if mispredicts else 0.0,
            }
        )
    columns = ["model", "cycles", "slots", "conserved", "retiring", "rmov",
               "frontend", "bad_spec", "mem", "core", "mispredicts",
               "bad_spec_slots_per_mispredict"]
    return {
        "rows": rows,
        "text": format_table(
            rows,
            columns=columns,
            title=f"Top-down stall attribution ({workload}; "
                  "slot fractions, sum = 1.0)",
        ),
    }


# ---------------------------------------------------------------------------
# Fig. 14: TAGE predictor
# ---------------------------------------------------------------------------


def _fig14_grid():
    grid = []
    for way, ss_f, st_f in (
        ("2-way", ss_2way, straight_2way),
        ("4-way", ss_4way, straight_4way),
    ):
        grid.append(
            (way, "SS",
             timing_task("coremark", "SS", ss_f(predictor="tage")))
        )
        grid.append(
            (way, "RAW",
             timing_task("coremark", "STRAIGHT-RAW", st_f(predictor="tage")))
        )
        grid.append(
            (way, "RE+",
             timing_task("coremark", "STRAIGHT-RE+", st_f(predictor="tage")))
        )
    return grid


def fig14_tage():
    """Fig. 14: CoreMark relative performance with TAGE instead of gshare."""
    grid = _fig14_grid()
    results = ensure_results([task for _, _, task in grid])
    rows = []
    base = None
    for way, name, task in grid:
        stats = _stats_of(results, task)
        if name == "SS":
            base = stats["cycles"]
        rows.append(
            {
                "class": way,
                "model": name,
                "cycles": stats["cycles"],
                "relative_perf": round(base / stats["cycles"], 4),
                "predictor_accuracy": round(stats["predictor_accuracy"], 4),
            }
        )
    series = [(f"{r['class']}/{r['model']}", r["relative_perf"]) for r in rows]
    return {
        "rows": rows,
        "text": format_bars(series, title="Fig. 14: with TAGE (CoreMark, SS = 1.0/class)"),
    }


# ---------------------------------------------------------------------------
# Fig. 15: retired instruction mix
# ---------------------------------------------------------------------------


def fig15_instruction_mix(workload="coremark"):
    """Fig. 15: retired-instruction type fractions, normalized to SS total."""
    tasks = [functional_task(workload, label) for label in _BINARIES]
    results = ensure_results(tasks)
    rows = []
    ss_total = None
    for label, task in zip(_BINARIES, tasks):
        payload = payload_or_raise(results[task.task_id], task.task_id)
        groups = payload["class_counts"]
        total = sum(groups.values())
        if label == "SS":
            ss_total = total
        row = {"model": label, "total": total}
        for group, count in groups.items():
            row[group] = count
            row[f"{group}_norm"] = round(count / ss_total, 4)
        row["total_norm"] = round(total / ss_total, 4)
        rows.append(row)
    columns = ["model", "total", "total_norm", "jump_branch", "alu", "load",
               "store", "rmov", "nop", "other"]
    return {
        "rows": rows,
        "text": format_table(
            rows,
            columns=columns,
            title=f"Fig. 15: retired instruction mix ({workload}, SS total = 1.0)",
        ),
    }


# ---------------------------------------------------------------------------
# Fig. 16: source-distance distribution
# ---------------------------------------------------------------------------


def fig16_distance_distribution():
    """Fig. 16: cumulative distribution of source operand distances.

    Measured on RE+ binaries built with the uppermost distance limit
    (1023), as in the paper.
    """
    tasks = [functional_task(workload, "STRAIGHT-RE+", max_distance=1023)
             for workload in _WORKLOADS]
    results = ensure_results(tasks)
    rows = []
    for workload, task in zip(_WORKLOADS, tasks):
        payload = metrics_view(
            payload_or_raise(results[task.task_id], task.task_id)
        )
        hist = payload["distance_hist"]
        total = sum(hist.values())
        max_distance = max(hist)
        for point in (1, 2, 4, 8, 16, 32, 64, 128):
            covered = sum(c for d, c in hist.items() if d <= point) / total
            rows.append(
                {
                    "workload": workload,
                    "distance<=": point,
                    "cumulative_fraction": round(covered, 4),
                }
            )
        rows.append(
            {
                "workload": workload,
                "distance<=": f"max={max_distance}",
                "cumulative_fraction": 1.0,
            }
        )
    return {
        "rows": rows,
        "text": format_table(
            rows, title="Fig. 16: cumulative source-distance distribution (RE+)"
        ),
    }


# ---------------------------------------------------------------------------
# §VI-B: max-distance sensitivity
# ---------------------------------------------------------------------------


def _sensitivity_grid(workload="coremark"):
    grid = []
    for max_distance in (1023, 127, 31):
        config = straight_4way(max_distance=max_distance,
                               name=f"STRAIGHT-4way-d{max_distance}")
        grid.append(
            (max_distance,
             timing_task(workload, "STRAIGHT-RE+", config,
                         max_distance=max_distance))
        )
    return grid


def sensitivity_max_distance(workload="coremark"):
    """§VI-B: CoreMark performance, max distance 1023 vs 31 (~1% in paper)."""
    grid = _sensitivity_grid(workload)
    results = ensure_results([task for _, task in grid])
    rows = []
    base_cycles = None
    for max_distance, task in grid:
        stats = _stats_of(results, task)
        if base_cycles is None:
            base_cycles = stats["cycles"]
        rows.append(
            {
                "max_distance": max_distance,
                "cycles": stats["cycles"],
                "relative_perf": round(base_cycles / stats["cycles"], 4),
                "instructions": stats["instructions"],
            }
        )
    return {
        "rows": rows,
        "text": format_table(
            rows, title=f"Max-distance sensitivity ({workload}, RE+, 4-way)"
        ),
    }


# ---------------------------------------------------------------------------
# Fig. 17: RTL power analysis
# ---------------------------------------------------------------------------


def fig17_power(workload="dhrystone"):
    """Fig. 17: relative per-module power at 1.0x/2.5x/4.0x clocks (2-way).

    Normalized to the corresponding SS module at 1.0x, as in the paper.
    """
    from repro.power import analyze_power

    tasks = [
        timing_task(workload, "SS", ss_2way()),
        timing_task(workload, "STRAIGHT-RE+", straight_2way()),
    ]
    results = ensure_results(tasks)
    ss_stats = SimStats.from_dict(_stats_of(results, tasks[0]))
    st_stats = SimStats.from_dict(_stats_of(results, tasks[1]))
    baselines = {}
    rows = []
    for rel_f in (1.0, 2.5, 4.0):
        ss_report = analyze_power(ss_stats, False, rel_f, core_name="SS-2way")
        st_report = analyze_power(st_stats, True, rel_f, core_name="STRAIGHT-2way")
        for module in ("rename", "regfile", "other"):
            if rel_f == 1.0:
                baselines[module] = ss_report.modules[module].total
            for arch, report in (("SS", ss_report), ("STRAIGHT", st_report)):
                rows.append(
                    {
                        "module": module,
                        "clock": f"{rel_f}x",
                        "arch": arch,
                        "relative_power": round(
                            report.modules[module].total / baselines[module], 4
                        ),
                    }
                )
    return {
        "rows": rows,
        "text": format_table(
            rows,
            title="Fig. 17: relative power by module/clock (norm. to SS 1.0x)",
        ),
    }


# ---------------------------------------------------------------------------
# Three-ISA grid + encoding density (registry-driven; beyond the paper)
# ---------------------------------------------------------------------------


def _isa_grid():
    """[(workload, class, descriptor, task)]: every registered ISA's default
    evaluation binary on its 2-way and 4-way cores."""
    from repro import isa as isa_registry

    grid = []
    for workload in _WORKLOADS:
        for way in ("2way", "4way"):
            for descriptor in isa_registry.descriptors():
                config = descriptor.config_factories[way]()
                grid.append(
                    (workload, way, descriptor,
                     timing_task(workload, descriptor.default_label, config))
                )
    return grid


def isa_grid():
    """Fig. 11/12-style relative performance across *all* registered ISAs.

    Extends the paper's SS-vs-STRAIGHT comparison with every other
    registered ISA (currently BasicBlocker-style ``bb``), normalized to the
    RV32IM (SS) core of the same issue-width class per workload.
    """
    grid = _isa_grid()
    results = ensure_results([task for *_, task in grid])
    base = {}
    for workload, way, descriptor, task in grid:
        if descriptor.name == "riscv":
            base[(workload, way)] = _stats_of(results, task)["cycles"]
    rows = []
    for workload, way, descriptor, task in grid:
        stats = _stats_of(results, task)
        rows.append(
            {
                "workload": workload,
                "class": way,
                "isa": descriptor.name,
                "model": descriptor.default_label,
                "cycles": stats["cycles"],
                "ipc": round(stats["ipc"], 3),
                "relative_perf": round(
                    base[(workload, way)] / stats["cycles"], 4
                ),
            }
        )
    series = [
        (f"{r['workload'][:5]}/{r['class']}/{r['model']}", r["relative_perf"])
        for r in rows
    ]
    return {
        "rows": rows,
        "text": format_bars(
            series,
            title="Three-ISA grid: relative performance (SS = 1.0 per class)",
        ),
    }


def static_ilp():
    """Static IPC upper bound vs measured simulator IPC, per ISA.

    Runs the static ILP pass (:mod:`repro.analysis.ilp_static`) on every
    registered ISA's default evaluation binary and joins it with the
    measured timing-grid IPC at both issue widths.  The static bound is an
    *upper* bound by construction, so ``bound_holds`` must be true on every
    grid point — the CI analyze-smoke job gates on ``ok``.  The gap between
    the two is the price of everything the static pass cannot see: cache
    misses, branch mispredictions, fetch stalls, finite windows.
    """
    from repro import isa as isa_registry
    from repro.analysis import analyze_ilp, support_for
    from repro.workloads import build_workload

    grid = _isa_grid()
    results = ensure_results([task for *_, task in grid])
    reports = {}  # (workload, isa) -> StaticIlpReport
    rows = []
    for workload, way, descriptor, task in grid:
        key = (workload, descriptor.name)
        if key not in reports:
            built = build_workload(workload)
            program = built.all()[descriptor.default_label].program
            reports[key] = analyze_ilp(program, support_for(descriptor.name))
        config = descriptor.config_factories[way]()
        bound = reports[key].ipc_bound(config.issue_width)
        measured = _stats_of(results, task)["ipc"]
        rows.append(
            {
                "workload": workload,
                "class": way,
                "isa": descriptor.name,
                "width": config.issue_width,
                "measured_ipc": round(measured, 4),
                "static_ipc_bound": round(bound, 4),
                "headroom": round(bound - measured, 4),
                "bound_holds": measured <= bound + 1e-9,
                "loops": len(reports[key].loops),
            }
        )
    series = [
        (f"{r['workload'][:5]}/{r['class']}/{r['isa']}",
         round(r["measured_ipc"] / r["static_ipc_bound"], 4))
        for r in rows
    ]
    return {
        "rows": rows,
        "ok": all(r["bound_holds"] for r in rows),
        "text": format_bars(
            series,
            title="Static ILP: measured IPC as a fraction of the static "
                  "upper bound",
        ),
    }


def _sampled_grid():
    """[(workload, way, descriptor, full_task, sampled_task)] — every
    registered ISA's evaluation binary, full vs. sampled simulation."""
    from repro import isa as isa_registry
    from repro.harness.bench import FASTPATH_ACCURACY_PARAMS
    from repro.harness.sampling import SamplingParams
    from repro.workloads import WORKLOADS

    params = SamplingParams(seed=0, **FASTPATH_ACCURACY_PARAMS).as_dict()
    grid = []
    for workload in _WORKLOADS:
        # Sampling pays off (and its estimator converges) at evaluation
        # scale, not at the pinned paper-figure iteration counts.
        iterations = WORKLOADS[workload].large_iterations
        for way in ("2way", "4way"):
            for descriptor in isa_registry.descriptors():
                config = descriptor.config_factories[way]()
                label = descriptor.default_label
                full = timing_task(workload, label, config,
                                   iterations=iterations)
                sampled = SweepTask(
                    f"sampled/{workload}/{label}/{_config_tag(config)}",
                    workload,
                    binary_label=label,
                    config=config,
                    iterations=iterations,
                    sampling=params,
                )
                grid.append((workload, way, descriptor, full, sampled))
    return grid


def sampled_error():
    """Sampled-vs-full IPC error across the three-ISA grid.

    Runs every golden-grid cell twice — the full cycle model and the
    SMARTS-style sampled estimator (:mod:`repro.harness.sampling`) — and
    reports the relative IPC error next to the estimator's own 95%
    confidence interval.  The sampled runs' windows and coverage land in
    the rows, so the wall-clock/accuracy trade is visible at a glance.
    """
    grid = _sampled_grid()
    tasks = [task for *_, full, sampled in grid
             for task in (full, sampled)]
    results = ensure_results(tasks)
    rows = []
    for workload, way, descriptor, full, sampled in grid:
        full_stats = _stats_of(results, full)
        sampled_stats = _stats_of(results, sampled)
        meta = sampled_stats.get("sampling") or {}
        full_ipc = full_stats["ipc"]
        sampled_ipc = sampled_stats["ipc"]
        ipc_ci = meta.get("ipc_ci95")
        ipc_mean = meta.get("ipc_mean") or sampled_ipc
        rows.append(
            {
                "workload": workload,
                "class": way,
                "isa": descriptor.name,
                "model": descriptor.default_label,
                "mode": meta.get("mode", "full"),
                "windows": meta.get("windows"),
                "coverage": round(meta["coverage"], 4)
                            if "coverage" in meta else None,
                "ipc_full": round(full_ipc, 4),
                "ipc_sampled": round(sampled_ipc, 4),
                "err_pct": round((sampled_ipc / full_ipc - 1) * 100, 3),
                "ci95_rel_pct": (None if not ipc_ci else
                                 round(ipc_ci / ipc_mean * 100, 3)),
            }
        )
    series = [
        (f"{r['workload'][:5]}/{r['class']}/{r['model']}", r["err_pct"])
        for r in rows
    ]
    return {
        "rows": rows,
        "text": format_bars(
            series,
            title="Sampled vs full simulation: IPC error (%)",
        ),
    }


def _isa_density_tasks():
    from repro import isa as isa_registry

    return [
        functional_task(workload, descriptor.default_label)
        for workload in _WORKLOADS
        for descriptor in isa_registry.descriptors()
    ]


def isa_density():
    """Encoding density (bits/instruction) across registered ISAs."""
    from repro.isa.density import density_report

    return density_report(workloads=_WORKLOADS)


def _ablations():
    from repro.harness import ablations

    return ablations


#: Registry used by the CLI example and tests.
ALL_EXPERIMENTS = {
    "table1": table1,
    "fig11": fig11_performance_4way,
    "fig12": fig12_performance_2way,
    "fig13": fig13_mispredict_penalty,
    "attribution": attribution_breakdown,
    "fig14": fig14_tage,
    "fig15": fig15_instruction_mix,
    "fig16": fig16_distance_distribution,
    "sensitivity_maxdist": sensitivity_max_distance,
    "fig17": fig17_power,
    "ablation_re_plus": lambda: _ablations().ablate_re_plus(),
    "ablation_recovery": lambda: _ablations().ablate_recovery(),
    "ablation_spadd": lambda: _ablations().ablate_spadd_throughput(),
    "isa_grid": isa_grid,
    "isa_density": isa_density,
    "static_ilp": static_ilp,
    "sampled_error": sampled_error,
}


def _grid_builders():
    """Per-experiment task declarations for the sweep CLI / prefetch."""
    ab = _ablations()
    return {
        "fig11": lambda: _performance_tasks(ss_4way, straight_4way),
        "fig12": lambda: _performance_tasks(ss_2way, straight_2way),
        "fig13": lambda: [task for _, task in _fig13_grid()],
        "attribution": lambda: [task for _, task in _attribution_grid()],
        "fig14": lambda: [task for _, _, task in _fig14_grid()],
        "fig15": lambda: [functional_task("coremark", label)
                          for label in _BINARIES],
        "fig16": lambda: [
            functional_task(workload, "STRAIGHT-RE+", max_distance=1023)
            for workload in _WORKLOADS
        ],
        "sensitivity_maxdist": lambda: [
            task for _, task in _sensitivity_grid()
        ],
        "fig17": lambda: [
            timing_task("dhrystone", "SS", ss_2way()),
            timing_task("dhrystone", "STRAIGHT-RE+", straight_2way()),
        ],
        "ablation_re_plus": lambda: [t for _, t in ab.re_plus_grid()],
        "ablation_recovery": lambda: [t for _, t in ab.recovery_grid()],
        "ablation_spadd": lambda: [t for _, t in ab.spadd_grid()],
        "isa_grid": lambda: [task for *_, task in _isa_grid()],
        "isa_density": _isa_density_tasks,
        "static_ilp": lambda: [task for *_, task in _isa_grid()],
        "sampled_error": lambda: [
            task for *_, full, sampled in _sampled_grid()
            for task in (full, sampled)
        ],
    }


def grid_tasks(names=None):
    """The deduplicated SweepTask grid behind the named experiments.

    ``table1`` contributes nothing (it is static), unknown names raise.
    """
    builders = _grid_builders()
    names = list(names) if names else sorted(set(builders) | {"table1"})
    tasks = []
    for name in names:
        if name == "table1":
            continue
        builder = builders.get(name)
        if builder is None:
            raise KeyError(
                f"unknown experiment {name!r}; choose from "
                f"{sorted(set(builders) | {'table1'})}"
            )
        tasks.extend(builder())
    return unique_tasks(tasks)
