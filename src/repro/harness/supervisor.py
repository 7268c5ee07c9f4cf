"""Supervised execution layer over :func:`repro.harness.sweep.run_sweep`.

The sweep engine already degrades gracefully *within* one invocation
(structured error payloads, broken-pool inline fallback, per-task
deadlines).  This module adds the layer the ROADMAP's service tier and
design-space autopilot need to run thousands of tasks unattended:

* **Failure classification** — a worker failure is either *transient*
  (deadline expiry, OS-level hiccups, a killed worker) or *deterministic*
  (a :class:`~repro.common.errors.SimulationError`, a compile failure: the
  same inputs will fail the same way forever).  See
  :func:`classify_failure`.
* **Retry with capped exponential backoff** — transient failures re-run,
  up to a per-task attempt cap and a per-sweep retry budget
  (:class:`RetryPolicy`); deterministic failures never burn budget.
* **Quarantine** — a task that exhausts its retries, or fails
  deterministically, is *quarantined*: its crash dump is written to the
  quarantine directory and the sweep completes without it.  The sweep
  result distinguishes "completed", "quarantined" and never loses work.
* **Checkpoint/resume** — every finished task is journaled to an
  append-only, fsync'd JSONL file keyed by
  :meth:`~repro.harness.sweep.SweepTask.checkpoint_key`.  A killed or
  interrupted sweep resumes exactly where it left off:
  ``supervised_sweep(..., resume=True)`` replays the journal, skips done
  work, and produces a **byte-identical canonical manifest** to an
  uninterrupted run (pinned by a golden fixture in the test suite).

The chaos campaign (:mod:`repro.harness.chaos`) drives every one of these
paths with seeded fault injection and is gated in CI.
"""

import json
import os
import time

from repro.common.errors import ReproError, SimulationError
from repro.harness import cache as cache_mod
from repro.harness.sweep import run_sweep, unique_tasks

#: Exception type names treated as transient: environmental, worth retrying.
#: Everything else — and every :class:`SimulationError` subclass except the
#: deadline timeout — is deterministic: same inputs, same failure.
TRANSIENT_ERROR_TYPES = frozenset({
    "RunTimeoutError",        # deadline expiry: the machine may be loaded
    "OSError",                # fork/pipe/fd pressure
    "IOError",
    "BlockingIOError",
    "InterruptedError",
    "BrokenPipeError",
    "ConnectionError",
    "ConnectionResetError",
    "EOFError",               # torn worker IPC stream
    "BrokenProcessPool",      # the pool itself died under the task
    "TimeoutError",
    "MemoryError",            # another tenant's spike, not our arithmetic
    "ProcessLookupError",
    "ChildProcessError",
})

#: Classification labels.
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"


def classify_failure(payload):
    """``TRANSIENT`` or ``DETERMINISTIC`` for one structured error payload.

    The payload is the ``kind == 'error'`` record a sweep worker ships back
    (:func:`repro.harness.sweep._error_payload`).  Chaos-injected faults
    carry their intended class in the message and classify like the real
    thing — that is the point of the campaign.
    """
    etype = payload.get("type", "")
    if etype in TRANSIENT_ERROR_TYPES:
        return TRANSIENT
    return DETERMINISTIC


class SweepInterrupted(ReproError):
    """A supervised sweep stopped at a checkpoint before finishing.

    Raised by the ``interrupt_after`` test/chaos hook (and re-raised for a
    mid-sweep ``KeyboardInterrupt``).  The journal is already fsync'd at
    this point: re-running with ``resume=True`` completes the sweep.
    """

    def __init__(self, message, completed=0):
        super().__init__(message)
        self.completed = completed


class RetryPolicy:
    """Retry/backoff knobs for one supervised sweep.

    ``max_attempts`` caps how often one task runs in total;
    ``retry_budget`` caps *extra* runs across the whole sweep, so a grid
    where everything is transiently failing cannot retry forever.  Backoff
    between rounds is exponential in the round number, capped at
    ``backoff_cap_s``; ``sleep`` is injectable so tests and the chaos
    campaign never actually wait.
    """

    def __init__(self, max_attempts=3, retry_budget=32, backoff_base_s=0.25,
                 backoff_cap_s=8.0, sleep=None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = int(max_attempts)
        self.retry_budget = int(retry_budget)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.sleep = sleep if sleep is not None else time.sleep

    def backoff_s(self, round_index):
        """Delay before retry round ``round_index`` (1-based)."""
        return min(self.backoff_cap_s,
                   self.backoff_base_s * (2.0 ** (round_index - 1)))

    def as_dict(self):
        return {
            "max_attempts": self.max_attempts,
            "retry_budget": self.retry_budget,
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
        }


# ---------------------------------------------------------------------------
# Checkpoint journal
# ---------------------------------------------------------------------------


class CheckpointJournal:
    """Append-only JSONL journal of finished sweep tasks.

    One record per line: ``{"record", "key", "task", "payload", "sha256"}``
    where the digest covers the canonical rendering of the record without
    its own checksum field.  Appends are flushed and ``fsync``'d before the
    caller moves on, so a record is either durably complete or (if the
    process dies mid-write) detectably truncated; :meth:`load` verifies
    every line and stops at the first torn/corrupt one, salvaging the
    intact prefix — exactly the append-only contract.
    """

    def __init__(self, path):
        self.path = path
        self._handle = None

    # -- write side ---------------------------------------------------------

    def _open(self):
        if self._handle is None or self._handle.closed:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            self._handle = open(self.path, "a")
        return self._handle

    @staticmethod
    def _seal(record):
        body = json.dumps(record, sort_keys=True, separators=(",", ":"),
                          default=repr)
        record = dict(record)
        record["sha256"] = cache_mod.payload_checksum(body)
        return record

    @staticmethod
    def _verify(record):
        expected = record.pop("sha256", None)
        if expected is None:
            return False
        body = json.dumps(record, sort_keys=True, separators=(",", ":"),
                          default=repr)
        return expected == cache_mod.payload_checksum(body)

    def append(self, kind, key, task_id, payload):
        """Durably journal one finished task (``kind``: done/quarantined)."""
        record = self._seal({
            "record": kind,
            "key": key,
            "task": task_id,
            "payload": payload,
        })
        handle = self._open()
        handle.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":"), default=repr) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def close(self):
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    def discard(self):
        """Start over: drop the journal file (fresh, non-resumed sweeps)."""
        self.close()
        try:
            os.remove(self.path)
        except OSError:
            pass

    # -- read side ----------------------------------------------------------

    def load(self):
        """Replay the journal: ``(records_by_key, salvage_report)``.

        ``records_by_key`` maps checkpoint key to the *latest* verified
        record for that key.  Reading stops at the first line that fails
        its checksum (a torn tail write): everything before it is salvaged,
        everything after is ignored and reported.
        """
        records = {}
        salvage = {"lines": 0, "replayed": 0, "torn": 0, "ignored_tail": 0}
        try:
            with open(self.path) as handle:
                lines = handle.readlines()
        except (FileNotFoundError, OSError):
            return records, salvage
        for index, line in enumerate(lines):
            salvage["lines"] += 1
            line = line.strip()
            ok = False
            if line:
                try:
                    record = json.loads(line)
                    ok = isinstance(record, dict) and self._verify(record)
                except ValueError:
                    ok = False
            if not ok:
                salvage["torn"] += 1
                salvage["ignored_tail"] = len(lines) - index - 1
                break
            records[record["key"]] = record
            salvage["replayed"] += 1
        return records, salvage


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


class SupervisedReport:
    """Results + canonical manifest + volatile telemetry of one sweep.

    ``manifest`` is *canonical*: it contains only facts that are identical
    between an uninterrupted run and any interrupted-then-resumed run of
    the same grid (task outcomes, never wall-clock, retry counts or cache
    hit rates).  ``manifest_bytes()`` is the byte-exact rendering the
    resume guarantee is pinned against.  Everything run-shaped lives in
    ``telemetry``.
    """

    def __init__(self, results, manifest, telemetry, cache_report, wall_s):
        self.results = results
        self.manifest = manifest
        self.telemetry = telemetry
        self.cache = cache_report
        self.wall_s = wall_s

    @property
    def ok(self):
        return not self.manifest["quarantined"]

    def result_hit_rate(self):
        total = len(self.manifest["requested"])
        return self.telemetry["cache_served"] / total if total else 0.0

    def manifest_bytes(self):
        """Canonical byte rendering (the resume byte-identity contract)."""
        return (json.dumps(self.manifest, sort_keys=True, indent=2)
                + "\n").encode("utf-8")

    def as_dict(self):
        return {
            "results": self.results,
            "manifest": self.manifest,
            "telemetry": self.telemetry,
            "cache": self.cache,
            "wall_s": self.wall_s,
        }


def _quarantine_failure(task, payload, attempts, quarantine_dir):
    """Crash-dump one quarantined task; returns the canonical entry."""
    entry = {
        "task": task.task_id,
        "type": payload.get("type", "Error"),
        "message": payload.get("message", ""),
        "class": classify_failure(payload),
    }
    if quarantine_dir:
        from repro.guardrails.crashdump import write_crash_dump

        exc = SimulationError(
            f"{entry['type']}: {entry['message']}",
            context={"task": task.task_id, "attempts": attempts,
                     "class": entry["class"]},
        )
        write_crash_dump(quarantine_dir, task.task_id, exc,
                         extra={"worker": payload})
    return entry


def supervised_sweep(tasks, jobs=None, progress=None, checkpoint=None,
                     resume=False, policy=None, quarantine_dir=None,
                     interrupt_after=None):
    """Run ``tasks`` under supervision; returns a :class:`SupervisedReport`.

    * ``checkpoint`` — path of the append-only journal.  ``None`` disables
      checkpointing (retry/quarantine still apply).
    * ``resume`` — replay the journal before running anything; without it
      an existing journal is discarded and the sweep starts fresh.
    * ``policy`` — a :class:`RetryPolicy` (default: 3 attempts, budget 32).
    * ``quarantine_dir`` — where quarantined tasks' crash dumps land.
    * ``interrupt_after`` — chaos/test hook: raise
      :class:`SweepInterrupted` after this many *newly executed* tasks have
      been journaled this invocation.

    Like :func:`run_sweep`, it refuses two tasks that share an id but not
    their content (:func:`~repro.harness.sweep.unique_tasks`).
    """
    started = time.perf_counter()
    policy = policy or RetryPolicy()

    ordered = unique_tasks(tasks)
    keys = {task.task_id: task.checkpoint_key() for task in ordered}

    journal = CheckpointJournal(checkpoint) if checkpoint else None
    salvage = {"lines": 0, "replayed": 0, "torn": 0, "ignored_tail": 0}
    replayed = {}
    if journal is not None:
        if resume:
            replayed, salvage = journal.load()
        else:
            journal.discard()

    results = {}
    quarantined = {}
    resumed_ids = []
    for task in ordered:
        record = replayed.get(keys[task.task_id])
        if record is None:
            continue
        resumed_ids.append(task.task_id)
        if record["record"] == "quarantined":
            quarantined[task.task_id] = record["payload"]["entry"]
            results[task.task_id] = record["payload"]["worker"]
        else:
            results[task.task_id] = record["payload"]

    pending = [t for t in ordered if t.task_id not in results]
    attempts = {t.task_id: 0 for t in ordered}
    budget_left = policy.retry_budget
    retries_used = 0
    cache_served = 0
    executed_this_run = 0
    rounds = 0
    interrupted = False
    inline_fallback = []

    def finish(task, payload, kind, entry=None):
        nonlocal executed_this_run
        results[task.task_id] = payload
        if kind == "quarantined":
            quarantined[task.task_id] = entry
        if journal is not None:
            journal_payload = (payload if kind == "done"
                               else {"entry": entry, "worker": payload})
            journal.append(kind, keys[task.task_id], task.task_id,
                           journal_payload)
        executed_this_run += 1
        if (interrupt_after is not None
                and executed_this_run >= interrupt_after):
            raise SweepInterrupted(
                f"interrupted after {executed_this_run} tasks "
                f"(checkpoint hook)", completed=executed_this_run)

    try:
        while pending:
            rounds += 1
            if rounds > 1:
                policy.sleep(policy.backoff_s(rounds - 1))
            round_report = run_sweep(pending, jobs=jobs, progress=progress)
            cache_served += round_report.manifest["cache_served"]
            inline_fallback.extend(
                round_report.manifest.get("inline_fallback", ())
            )
            retry_next = []
            for task in pending:
                payload = round_report.results[task.task_id]
                attempts[task.task_id] += 1
                if payload.get("kind") != "error":
                    finish(task, payload, "done")
                    continue
                failure_class = classify_failure(payload)
                can_retry = (failure_class == TRANSIENT
                             and attempts[task.task_id] < policy.max_attempts
                             and budget_left > 0)
                if can_retry:
                    budget_left -= 1
                    retries_used += 1
                    retry_next.append(task)
                else:
                    entry = _quarantine_failure(
                        task, payload, attempts[task.task_id], quarantine_dir
                    )
                    finish(task, payload, "quarantined", entry=entry)
            pending = retry_next
    except SweepInterrupted:
        interrupted = True
        raise
    except KeyboardInterrupt:
        interrupted = True
        raise SweepInterrupted(
            f"interrupted by user after {executed_this_run} tasks",
            completed=executed_this_run,
        ) from None
    finally:
        if journal is not None:
            journal.close()
        if interrupted and progress is not None:
            progress(len(results), len(ordered), "<interrupted>",
                     "checkpoint", 0.0)

    manifest = {
        "requested": [t.task_id for t in ordered],
        "completed": [t.task_id for t in ordered
                      if t.task_id in results
                      and t.task_id not in quarantined],
        "quarantined": [quarantined[t.task_id] for t in ordered
                        if t.task_id in quarantined],
        "failed": [t.task_id for t in ordered if t.task_id in quarantined],
        "schema": cache_mod.SCHEMA_VERSION,
        "toolchain": cache_mod.TOOLCHAIN_TAG,
    }
    telemetry = {
        "jobs": jobs,
        "rounds": rounds,
        "attempts": {tid: n for tid, n in attempts.items() if n},
        "retries_used": retries_used,
        "retry_budget_left": budget_left,
        "resumed": resumed_ids,
        "inline_fallback": inline_fallback,
        "cache_served": cache_served,
        "journal": checkpoint,
        "journal_salvage": salvage,
        "policy": policy.as_dict(),
    }
    ordered_results = {t.task_id: results[t.task_id] for t in ordered}
    return SupervisedReport(ordered_results, manifest, telemetry,
                            cache_mod.cache_report(),
                            round(time.perf_counter() - started, 6))
