"""Sweep engine + persistent cache tests.

Covers the ISSUE 4 guarantees: inline and pooled execution produce
identical, deterministically-ordered results; a second run is served from
the persistent cache; cache keys never alias across timing-relevant config
fields or backend options; worker crashes degrade to structured errors with
crash dumps while the sweep completes; ``--no-cache`` semantics wipe the
disk layer even while it is disabled; stale-schema entries self-evict.
"""

import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.core.configs import ss_2way, straight_2way
from repro.harness import cache as cache_mod
from repro.harness.runner import clear_cache
from repro.harness.sweep import (
    SweepTask,
    compile_binary_cached,
    ensure_results,
    execute_task,
    payload_or_raise,
    run_sweep,
)

TINY = """
int main() {
    int s = 0;
    for (int i = 0; i < 20; i++) { s += i * 3; }
    __out(s);
    return 0;
}
"""


@pytest.fixture
def disk_cache(tmp_path):
    """A fresh persistent cache rooted in tmp_path, restored afterwards."""
    previous = cache_mod.swap_state()
    cache_mod.configure(str(tmp_path / "cache"), enabled=True)
    clear_cache()
    yield cache_mod._state
    clear_cache()
    cache_mod.swap_state(previous)


def tiny_tasks():
    return [
        SweepTask(
            f"tiny/{config.name}",
            "tiny",
            config=config,
            compile_opts={"target": target, "source_text": TINY},
        )
        for config, target in (
            (ss_2way(), "riscv"),
            (straight_2way(), "straight"),
        )
    ]


class TestSweepEngine:
    def test_inline_results_are_deterministic_and_complete(self, disk_cache):
        tasks = tiny_tasks()
        report = run_sweep(tasks, jobs=1)
        assert report.ok
        assert list(report.results) == [t.task_id for t in tasks]
        for task in tasks:
            payload = payload_or_raise(report.results[task.task_id])
            assert payload["kind"] == "timing"
            assert payload["stats"]["cycles"] > 0

    def test_pool_matches_inline_bit_for_bit(self, disk_cache, tmp_path):
        tasks = tiny_tasks()
        inline = run_sweep(tasks, jobs=1)
        # A fresh cache so the pooled run recomputes from scratch.
        cache_mod.configure(str(tmp_path / "cache2"), enabled=True)
        pooled = run_sweep(tasks, jobs=2)
        assert pooled.ok
        assert list(pooled.results) == list(inline.results)
        assert pooled.results == inline.results

    def test_second_run_served_from_cache(self, disk_cache):
        tasks = tiny_tasks()
        cold = run_sweep(tasks, jobs=1)
        assert cold.manifest["cache_served"] == 0
        warm = run_sweep(tasks, jobs=1)
        assert warm.manifest["cache_served"] == len(tasks)
        assert warm.result_hit_rate() == 1.0
        assert warm.results == cold.results

    def test_ensure_results_memoizes_in_process(self, disk_cache):
        tasks = tiny_tasks()
        first = ensure_results(tasks)
        second = ensure_results(tasks)
        for task in tasks:
            assert first[task.task_id] is second[task.task_id]

    def test_worker_crash_degrades_to_structured_error(self, disk_cache,
                                                       tmp_path):
        diagnostics = str(tmp_path / "diag")
        bad = SweepTask("bad/task", "no_such_workload", binary_label="SS",
                        config=ss_2way())
        tasks = [bad] + tiny_tasks()
        report = run_sweep(tasks, jobs=2, diagnostics_dir=diagnostics)
        assert not report.ok
        assert report.manifest["failed"] == ["bad/task"]
        # The crash is a structured payload with a traceback, and
        # payload_or_raise re-raises it as a SimulationError in the parent.
        payload = report.results["bad/task"]
        assert payload["kind"] == "error"
        assert "no_such_workload" in payload["message"]
        assert payload["traceback"]
        with pytest.raises(SimulationError):
            payload_or_raise(payload, "bad/task")
        # Every other task still completed (partial-results manifest).
        assert report.manifest["completed"] == [t.task_id for t in tasks[1:]]
        for task in tasks[1:]:
            assert report.results[task.task_id]["kind"] == "timing"
        # A crash dump and the manifest were persisted.
        assert glob.glob(os.path.join(diagnostics, "*.json"))
        assert os.path.exists(report.manifest["manifest_path"])

    def test_raise_on_error_propagates(self, disk_cache):
        bad = SweepTask("bad/task", "no_such_workload", binary_label="SS",
                        config=ss_2way())
        with pytest.raises(SimulationError):
            run_sweep([bad], jobs=1, raise_on_error=True)


class TestCacheKeys:
    #: Timing-relevant scalar fields; perturbing any one must change the key.
    TIMING_FIELDS = (
        "fetch_width", "issue_width", "commit_width", "frontend_depth",
        "rename_stage_depth", "rob_entries", "iq_entries", "phys_regs",
        "lsq_loads", "lsq_stores", "btb_entries", "ras_depth", "mem_latency",
        "max_distance", "mdp_replay_penalty", "spadd_per_group",
        "btb_miss_penalty", "prefetch_streams", "prefetch_degree",
    )

    @settings(max_examples=60, deadline=None)
    @given(
        field=st.sampled_from(TIMING_FIELDS),
        delta=st.integers(min_value=1, max_value=64),
        straight=st.booleans(),
    )
    def test_any_timing_field_changes_the_key(self, field, delta, straight):
        config = straight_2way() if straight else ss_2way()
        perturbed = config.copy(**{field: getattr(config, field) + delta})
        assert config.cache_key() != perturbed.cache_key()
        # The display name does NOT participate: renaming must not alias or
        # split entries.
        renamed = config.copy(name=config.name + "-renamed")
        assert renamed.cache_key() == config.cache_key()

    def test_configs_differing_in_timing_field_get_distinct_entries(
            self, disk_cache):
        base = straight_2way()
        for config in (base, base.copy(mem_latency=base.mem_latency + 50)):
            execute_task(SweepTask(
                "tiny", "tiny", config=config,
                compile_opts={"target": "straight", "source_text": TINY},
            ))
        results = cache_mod.result_cache()
        assert results.stats.stores == 2

    def test_same_binary_distinct_max_distance_artifacts(self, disk_cache):
        first = compile_binary_cached(TINY, target="straight",
                                      max_distance=1023)
        second = compile_binary_cached(TINY, target="straight",
                                       max_distance=127)
        artifacts = cache_mod.artifact_cache()
        # Two distinct artifact entries, not one shared decode/compile.
        assert artifacts.stats.stores == 2
        assert first.program.max_distance != second.program.max_distance
        assert cache_mod.binary_digest(first) != cache_mod.binary_digest(second)

    def test_backend_options_change_the_artifact_key(self, disk_cache):
        compile_binary_cached(TINY, target="straight",
                              redundancy_elimination=True)
        compile_binary_cached(TINY, target="straight",
                              redundancy_elimination=False)
        assert cache_mod.artifact_cache().stats.stores == 2

    def test_artifact_cache_round_trip_is_usable(self, disk_cache):
        from repro.core.api import run_functional

        cold = compile_binary_cached(TINY, target="straight")
        cold_out = run_functional(cold).output
        # A second process would hit the disk entry; emulate by dropping the
        # in-memory layer object and re-reading.
        cache_mod._state._artifacts = None
        warm = compile_binary_cached(TINY, target="straight")
        assert run_functional(warm).output == cold_out


class TestInvalidation:
    def test_clear_cache_disk_wipes_even_while_disabled(self, disk_cache):
        run_sweep(tiny_tasks(), jobs=1)
        assert cache_mod.result_cache().stats.stores == 2
        root = cache_mod.cache_root()
        # --no-cache: the layer is disabled first, then cleared; nothing
        # persisted may survive.
        cache_mod.configure(enabled=False)
        clear_cache(disk=True)
        assert not os.path.exists(os.path.join(root, "results"))
        assert not os.path.exists(os.path.join(root, "artifacts"))
        cache_mod.configure(enabled=True)
        report = run_sweep(tiny_tasks(), jobs=1)
        assert report.manifest["cache_served"] == 0

    def test_schema_bump_auto_evicts_stale_entries(self, disk_cache,
                                                   monkeypatch):
        results = cache_mod.result_cache()
        key = {"kind": "timing", "probe": 1}
        results.put(key, {"stats": {"cycles": 1}})
        assert results.get(key) is not None
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION",
                            cache_mod.SCHEMA_VERSION + 1)
        assert results.get(key) is None
        assert results.stats.evictions == 1
        # The stale file is gone, not just skipped.
        assert results.get(key) is None
        assert results.stats.evictions == 1

    def test_corrupt_entry_evicts_as_miss(self, disk_cache):
        results = cache_mod.result_cache()
        key = {"kind": "timing", "probe": 2}
        results.put(key, {"stats": {"cycles": 1}})
        path = results._path(key)
        with open(path, "w") as handle:
            handle.write("{ not json")
        assert results.get(key) is None
        assert not os.path.exists(path)


class TestBrokenPoolFallback:
    """A SIGKILLed worker breaks the pool; the parent must harvest finished
    futures (never double-counting them) and re-run only the lost tasks
    inline, with the manifest naming exactly the inline re-runs."""

    def kill_grid(self, tmp_path, count=3, victim=0):
        tasks = []
        for index in range(count):
            config = straight_2way() if index % 2 else ss_2way()
            target = "straight" if index % 2 else "riscv"
            tasks.append(SweepTask(
                f"bp/t{index}",
                f"bp-tiny{index}",
                config=config,
                compile_opts={"target": target, "source_text": TINY},
                chaos=({"mode": "kill",
                        "once": str(tmp_path / "kill.flag")}
                       if index == victim else None),
            ))
        return tasks

    def test_fallback_completes_without_double_counting(self, disk_cache,
                                                        tmp_path):
        tasks = self.kill_grid(tmp_path)
        events = []
        report = run_sweep(
            tasks, jobs=2,
            progress=lambda *event: events.append(event),
        )
        # Every task completed despite the dead worker...
        assert report.ok
        assert report.manifest["completed"] == [t.task_id for t in tasks]
        # ...exactly one progress event per task: finished futures were
        # harvested, not re-recorded on top of the inline re-run.
        assert len(events) == len(tasks)
        assert sorted(e[2] for e in events) == sorted(
            t.task_id for t in tasks
        )
        assert [e[0] for e in events] == list(range(1, len(tasks) + 1))
        # The manifest names the tasks that re-ran inline, and only those.
        fallback = report.manifest["inline_fallback"]
        assert fallback
        assert set(fallback) <= {t.task_id for t in tasks}
        inline_events = [e[2] for e in events if e[3] == "inline"]
        assert sorted(inline_events) == sorted(fallback)

    def test_fallback_results_match_clean_run(self, disk_cache, tmp_path):
        tasks = self.kill_grid(tmp_path)
        broken = run_sweep(tasks, jobs=2)
        cache_mod.configure(str(tmp_path / "cache-clean"), enabled=True)
        clean = run_sweep(self.kill_grid(tmp_path), jobs=1)
        assert not clean.manifest["inline_fallback"]
        assert broken.results == clean.results

    def test_clean_pool_reports_no_fallback(self, disk_cache):
        report = run_sweep(tiny_tasks(), jobs=2)
        assert report.ok
        assert report.manifest["inline_fallback"] == []


@pytest.fixture
def memory_only():
    """Memory-only caching (no persistent layer) and an empty memo."""
    previous = cache_mod.swap_state()
    cache_mod.configure(enabled=False)
    clear_cache()
    yield
    clear_cache()
    cache_mod.swap_state(previous)


class TestTaskIdentity:
    """One id per unit of work, one result key per run."""

    def test_sampled_task_is_not_served_the_full_run(self, disk_cache):
        from repro.harness.sampling import SamplingParams

        opts = {"target": "riscv", "source_text": TINY}
        full = SweepTask("tiny/full", "tiny", config=ss_2way(),
                         compile_opts=opts)
        sampled = SweepTask("tiny/sampled", "tiny", config=ss_2way(),
                            compile_opts=opts,
                            sampling=SamplingParams().as_dict())
        cold = run_sweep([full, sampled], jobs=1)
        assert cold.ok
        # The parent's cache pre-pass must key the sampled task on its
        # schedule, exactly as the worker that stored it did.
        warm = run_sweep([sampled], jobs=1)
        assert warm.manifest["cache_served"] == 1
        payload = warm.results["tiny/sampled"]
        assert payload["stats"]["sampling"]
        assert payload == cold.results["tiny/sampled"]
        assert payload != cold.results["tiny/full"]

    def test_grid_tasks_are_distinct_units(self):
        from repro.harness.experiments import _grid_builders, grid_tasks

        tasks = grid_tasks()
        keys = {task.checkpoint_key() for task in tasks}
        assert len(tasks) == len(keys) == 73
        # No experiment's unit of work is dropped by the id dedup.
        assert keys == {task.checkpoint_key()
                        for builder in _grid_builders().values()
                        for task in builder()}

    def test_iteration_counts_get_their_own_results(self, memory_only):
        from repro.harness.experiments import timing_task

        forty, forty_one = (
            timing_task("dhrystone", "SS", ss_2way(), iterations=count)
            for count in (40, 41)
        )
        assert forty.task_id != forty_one.task_id
        instructions = [
            payload_or_raise(ensure_results([task])[task.task_id])
            ["stats"]["instructions"]
            for task in (forty, forty_one)
        ]
        assert instructions[0] < instructions[1]

    def test_clashing_task_ids_raise(self, memory_only):
        base = SweepTask("clash", "tiny", config=ss_2way(),
                         compile_opts={"target": "riscv",
                                       "source_text": TINY})
        other = SweepTask("clash", "tiny", config=ss_2way(mem_latency=7),
                          compile_opts={"target": "riscv",
                                        "source_text": TINY})
        with pytest.raises(ValueError, match="clash"):
            run_sweep([base, other], jobs=1)
        with pytest.raises(ValueError, match="clash"):
            ensure_results([base, other])
        # The same unit of work repeated under one id is still one task.
        twin = SweepTask("clash", "tiny", config=ss_2way(),
                         compile_opts={"target": "riscv",
                                       "source_text": TINY})
        report = run_sweep([base, twin], jobs=1)
        assert report.manifest["requested"] == ["clash"]


class TestMemo:
    def test_figures_after_a_pooled_sweep_simulate_nothing(self, memory_only,
                                                           monkeypatch):
        from repro.harness import sweep
        from repro.harness.experiments import (
            fig12_performance_2way,
            fig16_distance_distribution,
            grid_tasks,
        )

        ensure_results(grid_tasks(["fig12", "fig16"]), jobs=2)
        calls = []
        real = sweep.run_sweep
        monkeypatch.setattr(
            sweep, "run_sweep",
            lambda *args, **kwargs: calls.append(args)
            or real(*args, **kwargs),
        )
        fig12_performance_2way()
        fig16_distance_distribution()
        assert calls == []
