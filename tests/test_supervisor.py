"""Supervised sweep layer tests (ISSUE 6).

Covers: failure classification, retry/backoff with a per-sweep budget,
deterministic-failure quarantine with crash dumps, the append-only fsync'd
checkpoint journal (torn-tail salvage), and the resume guarantee — an
interrupted-then-resumed sweep produces a canonical manifest byte-identical
to an uninterrupted run, pinned by a golden fixture.
"""

import os

import pytest

from repro.common.errors import SimulationError
from repro.harness import cache as cache_mod
from repro.harness.chaos import _grid
from repro.harness.supervisor import (
    DETERMINISTIC,
    TRANSIENT,
    CheckpointJournal,
    RetryPolicy,
    SweepInterrupted,
    classify_failure,
    supervised_sweep,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def disk_cache(tmp_path):
    """A fresh persistent cache rooted in tmp_path, restored afterwards."""
    previous = cache_mod.swap_state()
    cache_mod.configure(str(tmp_path / "cache"), enabled=True)
    yield cache_mod._state
    cache_mod.swap_state(previous)


def no_sleep(**kwargs):
    kwargs.setdefault("sleep", lambda _s: None)
    return RetryPolicy(**kwargs)


class TestClassification:
    @pytest.mark.parametrize("etype", [
        "RunTimeoutError", "OSError", "BrokenProcessPool", "MemoryError",
        "EOFError", "BrokenPipeError",
    ])
    def test_transient_types(self, etype):
        assert classify_failure({"kind": "error", "type": etype}) == TRANSIENT

    @pytest.mark.parametrize("etype", [
        "SimulationError", "InvariantViolation", "CompileError", "KeyError",
        "ValueError", "ZeroDivisionError", "",
    ])
    def test_deterministic_types(self, etype):
        assert (classify_failure({"kind": "error", "type": etype})
                == DETERMINISTIC)


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.5, backoff_cap_s=3.0)
        delays = [policy.backoff_s(r) for r in range(1, 6)]
        assert delays == [0.5, 1.0, 2.0, 3.0, 3.0]

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestCheckpointJournal:
    def test_round_trip_latest_wins(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        journal.append("done", "k1", "t1", {"kind": "timing", "n": 1})
        journal.append("done", "k2", "t2", {"kind": "timing", "n": 2})
        journal.append("done", "k1", "t1", {"kind": "timing", "n": 3})
        journal.close()
        records, salvage = journal.load()
        assert salvage == {"lines": 3, "replayed": 3, "torn": 0,
                           "ignored_tail": 0}
        assert records["k1"]["payload"] == {"kind": "timing", "n": 3}
        assert records["k2"]["task"] == "t2"

    def test_torn_tail_salvages_prefix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path)
        journal.append("done", "k1", "t1", {"n": 1})
        journal.append("done", "k2", "t2", {"n": 2})
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"record": "done", "key": "k3", "tas')
        records, salvage = journal.load()
        assert sorted(records) == ["k1", "k2"]
        assert salvage["torn"] == 1

    def test_bitflipped_line_stops_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = CheckpointJournal(path)
        journal.append("done", "k1", "t1", {"n": 1})
        journal.append("done", "k2", "t2", {"n": 2})
        journal.close()
        lines = open(path).readlines()
        lines[0] = lines[0].replace('"n":1', '"n":9')
        with open(path, "w") as handle:
            handle.writelines(lines)
        records, salvage = journal.load()
        # The corrupted first line fails its checksum; replay stops there,
        # so nothing after it is trusted either (append-only contract).
        assert records == {}
        assert salvage["torn"] == 1
        assert salvage["ignored_tail"] == 1

    def test_missing_file_is_empty(self, tmp_path):
        records, salvage = CheckpointJournal(str(tmp_path / "nope")).load()
        assert records == {}
        assert salvage["replayed"] == 0


class TestSupervisedSweep:
    def test_clean_grid_completes_without_retries(self, disk_cache, tmp_path):
        tasks = _grid("clean", count=2)
        report = supervised_sweep(tasks, jobs=1,
                                  checkpoint=str(tmp_path / "j.jsonl"))
        assert report.ok
        assert report.manifest["completed"] == [t.task_id for t in tasks]
        assert report.telemetry["retries_used"] == 0
        assert report.telemetry["rounds"] == 1

    def test_transient_failure_retries_then_succeeds(self, disk_cache,
                                                     tmp_path):
        tasks = _grid("retry", count=2, chaos_on=0,
                      chaos={"mode": "raise-transient",
                             "once": str(tmp_path / "flag")})
        slept = []
        report = supervised_sweep(
            tasks, jobs=1,
            policy=RetryPolicy(sleep=slept.append, backoff_base_s=0.25),
        )
        assert report.ok
        assert report.telemetry["retries_used"] == 1
        assert report.telemetry["rounds"] == 2
        assert slept == [0.25]  # one backoff before the retry round

    def test_deterministic_failure_quarantines_immediately(self, disk_cache,
                                                           tmp_path):
        quarantine = str(tmp_path / "quarantine")
        tasks = _grid("det", count=2, chaos_on=1,
                      chaos={"mode": "raise-deterministic"})
        report = supervised_sweep(tasks, jobs=1, policy=no_sleep(),
                                  quarantine_dir=quarantine)
        assert not report.ok
        assert report.manifest["failed"] == [tasks[1].task_id]
        entry = report.manifest["quarantined"][0]
        assert entry["class"] == DETERMINISTIC
        assert entry["type"] == "SimulationError"
        # No retry was burned on a failure that cannot go away.
        assert report.telemetry["retries_used"] == 0
        dumps = [f for f in os.listdir(quarantine) if f.startswith("crash-")]
        assert len(dumps) == 1
        # The healthy task still completed.
        assert report.manifest["completed"] == [tasks[0].task_id]

    def test_retry_budget_bounds_total_retries(self, disk_cache):
        # Every attempt fails transiently; budget 1 allows exactly one
        # retry across the sweep even though max_attempts would allow more.
        tasks = _grid("budget", count=1, chaos_on=0,
                      chaos={"mode": "raise-transient"})
        report = supervised_sweep(
            tasks, jobs=1, policy=no_sleep(max_attempts=5, retry_budget=1),
        )
        assert not report.ok
        assert report.telemetry["retries_used"] == 1
        assert report.telemetry["retry_budget_left"] == 0
        assert report.telemetry["attempts"][tasks[0].task_id] == 2

    def test_attempt_cap_quarantines_as_transient(self, disk_cache, tmp_path):
        quarantine = str(tmp_path / "q")
        tasks = _grid("cap", count=1, chaos_on=0,
                      chaos={"mode": "raise-transient"})
        report = supervised_sweep(
            tasks, jobs=1, policy=no_sleep(max_attempts=3),
            quarantine_dir=quarantine,
        )
        entry = report.manifest["quarantined"][0]
        assert entry["class"] == TRANSIENT
        assert report.telemetry["attempts"][tasks[0].task_id] == 3


class TestCheckpointResume:
    def run_interrupted_then_resume(self, tasks, journal, cut, jobs=1):
        with pytest.raises(SweepInterrupted) as excinfo:
            supervised_sweep(tasks, jobs=jobs, checkpoint=journal,
                             interrupt_after=cut)
        assert excinfo.value.completed == cut
        return supervised_sweep(tasks, jobs=jobs, checkpoint=journal,
                                resume=True)

    def test_resume_skips_done_work_and_matches(self, disk_cache, tmp_path):
        tasks = _grid("resume", count=3)
        reference = supervised_sweep(tasks, jobs=1,
                                     checkpoint=str(tmp_path / "ref.jsonl"))
        cache_mod.configure(str(tmp_path / "cache2"), enabled=True)
        resumed = self.run_interrupted_then_resume(
            tasks, str(tmp_path / "j.jsonl"), cut=2
        )
        assert resumed.telemetry["resumed"] == [t.task_id for t in tasks[:2]]
        assert resumed.results == reference.results
        assert resumed.manifest_bytes() == reference.manifest_bytes()

    def test_golden_resume_manifest_fixture(self, disk_cache, tmp_path):
        """Both the uninterrupted and the resumed manifest are pinned to the
        golden fixture byte-for-byte."""
        golden = open(os.path.join(FIXTURES,
                                   "golden_resume_manifest.json"), "rb").read()
        tasks = _grid("golden", count=3)
        uninterrupted = supervised_sweep(
            tasks, jobs=1, checkpoint=str(tmp_path / "a.jsonl")
        )
        assert uninterrupted.manifest_bytes() == golden
        cache_mod.configure(str(tmp_path / "cache2"), enabled=True)
        resumed = self.run_interrupted_then_resume(
            tasks, str(tmp_path / "b.jsonl"), cut=1
        )
        assert resumed.manifest_bytes() == golden

    def test_resume_keyed_on_task_identity_not_id(self, disk_cache, tmp_path):
        """A journal entry is replayed only for the exact same grid point:
        same task id with a different config re-runs instead of aliasing."""
        journal = str(tmp_path / "j.jsonl")
        tasks = _grid("keyed", count=2)
        supervised_sweep(tasks, jobs=1, checkpoint=journal)
        changed = _grid("keyed", count=2)
        changed[0].config = changed[0].config.copy(
            mem_latency=changed[0].config.mem_latency + 7
        )
        resumed = supervised_sweep(changed, jobs=1, checkpoint=journal,
                                   resume=True)
        assert resumed.telemetry["resumed"] == [changed[1].task_id]
        assert resumed.ok

    def test_quarantined_tasks_resume_without_rerunning(self, disk_cache,
                                                        tmp_path):
        journal = str(tmp_path / "j.jsonl")
        tasks = _grid("qres", count=2, chaos_on=0,
                      chaos={"mode": "raise-deterministic"})
        first = supervised_sweep(tasks, jobs=1, checkpoint=journal,
                                 policy=no_sleep())
        assert first.manifest["failed"] == [tasks[0].task_id]
        resumed = supervised_sweep(tasks, jobs=1, checkpoint=journal,
                                   resume=True, policy=no_sleep())
        assert sorted(resumed.telemetry["resumed"]) == sorted(
            t.task_id for t in tasks
        )
        assert resumed.telemetry["rounds"] == 0  # nothing re-ran
        assert resumed.manifest_bytes() == first.manifest_bytes()

    def test_fresh_run_discards_stale_journal(self, disk_cache, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        tasks = _grid("fresh", count=2)
        supervised_sweep(tasks, jobs=1, checkpoint=journal)
        # Without resume=True the journal must not leak into a fresh sweep.
        report = supervised_sweep(tasks, jobs=1, checkpoint=journal)
        assert report.telemetry["resumed"] == []

    def test_interrupt_payload_error_classifies(self, disk_cache):
        # payload_or_raise on a quarantined worker payload still raises.
        from repro.harness.sweep import payload_or_raise

        tasks = _grid("perr", count=1, chaos_on=0,
                      chaos={"mode": "raise-deterministic"})
        report = supervised_sweep(tasks, jobs=1, policy=no_sleep())
        with pytest.raises(SimulationError):
            payload_or_raise(report.results[tasks[0].task_id])
