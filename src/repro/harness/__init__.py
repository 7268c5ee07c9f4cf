"""Experiment harness: one runner per paper table/figure.

Each ``fig*``/``table*`` function returns structured rows AND can print the
same series the paper plots; the ``benchmarks/`` directory wraps them in
pytest-benchmark entries, and EXPERIMENTS.md records paper-vs-measured.
"""

from repro.harness.runner import timed_run, clear_cache, deadline
from repro.harness.ablations import (
    ablate_re_plus,
    ablate_recovery,
    ablate_spadd_throughput,
)
from repro.harness.experiments import (
    table1,
    fig11_performance_4way,
    fig12_performance_2way,
    fig13_mispredict_penalty,
    fig14_tage,
    fig15_instruction_mix,
    fig16_distance_distribution,
    fig17_power,
    sensitivity_max_distance,
    ALL_EXPERIMENTS,
)
from repro.harness.experiments import grid_tasks
from repro.harness.reporting import format_table, format_bars
from repro.harness.sweep import (
    SweepTask,
    SweepReport,
    compile_binary_cached,
    ensure_results,
    run_sweep,
)
from repro.harness.supervisor import (
    CheckpointJournal,
    RetryPolicy,
    SupervisedReport,
    SweepInterrupted,
    classify_failure,
    supervised_sweep,
)
from repro.harness.chaos import run_chaos_campaign

__all__ = [
    "timed_run",
    "clear_cache",
    "deadline",
    "SweepTask",
    "SweepReport",
    "CheckpointJournal",
    "RetryPolicy",
    "SupervisedReport",
    "SweepInterrupted",
    "classify_failure",
    "supervised_sweep",
    "run_chaos_campaign",
    "compile_binary_cached",
    "ensure_results",
    "run_sweep",
    "grid_tasks",
    "table1",
    "fig11_performance_4way",
    "fig12_performance_2way",
    "fig13_mispredict_penalty",
    "fig14_tage",
    "fig15_instruction_mix",
    "fig16_distance_distribution",
    "fig17_power",
    "sensitivity_max_distance",
    "ALL_EXPERIMENTS",
    "format_table",
    "format_bars",
    "ablate_re_plus",
    "ablate_recovery",
    "ablate_spadd_throughput",
]
