"""Experiment harness tests (the cheap, functional-only experiments plus
plumbing; the full timing figures are exercised by the benchmark suite)."""

import time

import pytest

from repro.common.errors import RunTimeoutError
from repro.harness import (
    table1,
    fig15_instruction_mix,
    fig16_distance_distribution,
    fig17_power,
    format_table,
    format_bars,
    timed_run,
    deadline,
    ALL_EXPERIMENTS,
)
from repro.core.configs import straight_2way


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_empty(self):
        assert "no rows" in format_table([])

    def test_format_bars_normalizes_to_peak(self):
        text = format_bars([("x", 1.0), ("y", 0.5)], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5


class TestCheapExperiments:
    def test_table1_has_four_models(self):
        result = table1()
        assert len(result["rows"]) == 4
        assert "Table I" in result["text"]

    def test_fig15_shape(self):
        result = fig15_instruction_mix()
        rows = {r["model"]: r for r in result["rows"]}
        # SS executes no RMOVs; RAW executes more than RE+.
        assert rows["SS"]["rmov"] == 0
        assert rows["STRAIGHT-RAW"]["rmov"] > rows["STRAIGHT-RE+"]["rmov"] > 0
        assert rows["STRAIGHT-RAW"]["total_norm"] > rows["STRAIGHT-RE+"]["total_norm"] > 1.0
        # Paper: RE+ cuts the added RMOVs to roughly 20% of the SS count.
        assert rows["STRAIGHT-RE+"]["rmov"] / rows["SS"]["total"] < 0.35

    def test_fig16_shape(self):
        result = fig16_distance_distribution()
        by_key = {
            (r["workload"], r["distance<="]): r["cumulative_fraction"]
            for r in result["rows"]
            if isinstance(r["distance<="], int)
        }
        for workload in ("dhrystone", "coremark"):
            # Paper: 30-40%+ of operands are distance 1; most within 32.
            assert by_key[(workload, 1)] > 0.25
            assert by_key[(workload, 32)] > 0.9
            # CDF is monotone.
            previous = 0.0
            for point in (1, 2, 4, 8, 16, 32, 64, 128):
                assert by_key[(workload, point)] >= previous
                previous = by_key[(workload, point)]

    def test_fig17_shape(self):
        result = fig17_power()
        rows = {
            (r["module"], r["clock"], r["arch"]): r["relative_power"]
            for r in result["rows"]
        }
        # Rename power almost removed at every frequency.
        for clock in ("1.0x", "2.5x", "4.0x"):
            assert rows[("rename", clock, "STRAIGHT")] < 0.2 * rows[
                ("rename", clock, "SS")
            ]
        # Register file / other slightly higher for STRAIGHT (higher IPC),
        # within the paper's reported bounds-ish (<= +18% / +5% at 1.0x).
        assert 0.90 <= rows[("regfile", "1.0x", "STRAIGHT")] < 1.30
        assert 0.85 <= rows[("other", "1.0x", "STRAIGHT")] < 1.15
        # Everything grows with the clock target.
        assert rows[("other", "4.0x", "SS")] > rows[("other", "1.0x", "SS")]

    def test_registry_covers_all_figures(self):
        assert set(ALL_EXPERIMENTS) == {
            "table1",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "sensitivity_maxdist",
            "fig17",
            "attribution",
            "ablation_re_plus",
            "ablation_recovery",
            "ablation_spadd",
            "isa_grid",
            "isa_density",
            "static_ilp",
            "sampled_error",
        }

    def test_static_ilp_declares_the_isa_grid_tasks(self):
        from repro.harness import grid_tasks

        tasks = grid_tasks(["static_ilp"])
        # 2 workloads x 2 machine classes x 3 ISAs.
        assert len(tasks) == 12
        assert list(map(repr, grid_tasks(["isa_grid"]))) == list(
            map(repr, tasks)
        )


class TestRunnerCache:
    def test_timed_run_is_memoized(self, monkeypatch):
        import repro.core.api as api

        first = timed_run("dhrystone", "STRAIGHT-RE+", straight_2way())
        simulated = []
        real = api.simulate
        monkeypatch.setattr(
            api, "simulate",
            lambda *args, **kwargs: simulated.append(args)
            or real(*args, **kwargs),
        )
        second = timed_run("dhrystone", "STRAIGHT-RE+", straight_2way())
        assert simulated == []
        assert second.stats.as_dict() == first.stats.as_dict()


class TestNestedDeadline:
    """Regression tests: an inner ``deadline`` must not clobber the outer
    SIGALRM itimer (the pre-PR6 bug cancelled the outer budget for good)."""

    def test_outer_survives_completed_inner(self):
        # Outer 0.15s, inner 0.02s that finishes instantly: the outer budget
        # must keep ticking and still fire on the work after the inner block.
        with pytest.raises(RunTimeoutError, match="outer"):
            with deadline(0.15, "outer"):
                with deadline(0.02, "inner"):
                    pass  # inner completes untriggered
                time.sleep(1.0)  # outer must interrupt this

    def test_inner_fires_first_then_outer_still_armed(self):
        fired = []
        with pytest.raises(RunTimeoutError, match="outer"):
            with deadline(0.15, "outer"):
                try:
                    with deadline(0.02, "inner"):
                        time.sleep(1.0)
                except RunTimeoutError:
                    fired.append("inner")
                time.sleep(1.0)  # outer budget still live after inner fired
        assert fired == ["inner"]

    def test_outer_exhausted_during_inner_fires_on_exit(self):
        # The inner block outlives the whole outer budget; the outer alarm
        # must fire right after the inner one is dismantled, not vanish.
        with pytest.raises(RunTimeoutError, match="outer"):
            with deadline(0.05, "outer"):
                try:
                    with deadline(0.02, "inner"):
                        time.sleep(0.1)
                except RunTimeoutError:
                    pass
                time.sleep(1.0)

    def test_sequential_deadlines_are_independent(self):
        with deadline(0.2, "a"):
            pass
        # No stray alarm may leak from the completed block.
        time.sleep(0.25)

    def test_zero_seconds_is_a_no_op(self):
        with deadline(0, "none"):
            time.sleep(0.01)


class TestDeadlineFallbackModes:
    """The documented non-SIGALRM enforcement paths (PR 10, satellite b):
    worker threads auto-select the thread-timer mode, and ``poll`` mode
    enforces cooperatively via :func:`poll_deadline`."""

    def test_mode_autoselect_main_vs_worker_thread(self):
        import threading

        from repro.harness.runner import deadline_mode

        assert deadline_mode() == "sigalrm"
        seen = []
        worker = threading.Thread(target=lambda: seen.append(deadline_mode()))
        worker.start()
        worker.join()
        assert seen == ["timer"]

    def test_timer_mode_fires_in_worker_thread(self):
        import threading

        outcome = {}

        def work():
            try:
                with deadline(0.05, "threaded"):
                    # A busy loop, not sleep: async-exception delivery lands
                    # at a bytecode boundary, which sleep() can outlive.
                    spin_until = time.monotonic() + 5.0
                    while time.monotonic() < spin_until:
                        pass
                outcome["result"] = "completed"
            except RunTimeoutError as exc:
                outcome["result"] = "timeout"
                outcome["message"] = str(exc)

        worker = threading.Thread(target=work)
        started = time.monotonic()
        worker.start()
        worker.join(10.0)
        assert outcome["result"] == "timeout"
        assert "threaded" in outcome["message"]
        assert time.monotonic() - started < 5.0

    def test_timer_mode_untriggered_block_is_clean(self):
        import threading

        outcome = {}

        def work():
            try:
                with deadline(5.0, "plenty"):
                    outcome["inside"] = True
                # No stray async exception may land after a clean exit.
                time.sleep(0.05)
                outcome["result"] = "completed"
            except RunTimeoutError:  # pragma: no cover - the failure mode
                outcome["result"] = "timeout"

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(10.0)
        assert outcome == {"inside": True, "result": "completed"}

    def test_poll_mode_enforces_cooperatively(self):
        from repro.harness.runner import poll_deadline

        with pytest.raises(RunTimeoutError, match="polled"):
            with deadline(0.03, "polled", mode="poll"):
                spin_until = time.monotonic() + 5.0
                while time.monotonic() < spin_until:
                    poll_deadline()

    def test_poll_deadline_checks_outer_scopes_too(self):
        from repro.harness.runner import poll_deadline

        with pytest.raises(RunTimeoutError, match="outer"):
            with deadline(0.03, "outer", mode="poll"):
                time.sleep(0.05)  # outer budget now exhausted
                with deadline(5.0, "inner", mode="poll"):
                    poll_deadline()

    def test_sigalrm_mode_rejected_off_main_thread(self):
        import threading

        errors = []

        def work():
            try:
                with deadline(0.1, "x", mode="sigalrm"):
                    pass
            except ValueError as exc:
                errors.append(str(exc))

        worker = threading.Thread(target=work)
        worker.start()
        worker.join()
        assert errors and "main thread" in errors[0]

    def test_explicit_timer_mode_on_main_thread(self):
        # The serve executor's inline path requests auto mode inside a
        # worker thread; explicitly forcing timer on the main thread must
        # behave identically (the mode is thread-agnostic).
        with pytest.raises(RunTimeoutError, match="forced"):
            with deadline(0.05, "forced", mode="timer"):
                spin_until = time.monotonic() + 5.0
                while time.monotonic() < spin_until:
                    pass
