"""Seeded chaos campaign for the supervised sweep layer.

PR 1 proved the simulator core's guardrails with a fault-injection
campaign; this module applies the same discipline one layer up, to the
harness itself.  Every failure mode the supervisor claims to survive is
*injected on purpose*, under a seed, and the campaign asserts the outcome
the robustness contract promises:

==========================  =============================================
Injected failure            Required outcome
==========================  =============================================
worker killed mid-task      broken pool harvested + inline fallback; all
                            results delivered, none double-counted
transient OS error          retried with backoff, then succeeds
deadline expiry             retried up to the attempt cap, then cleanly
                            quarantined with a crash dump
deterministic SimulationError  quarantined immediately, zero retries burned
cache corruption            fsck detects 100%, corrupt entries quarantined,
                            never re-served, recompute matches original
mid-sweep interrupt         resume replays the journal and produces a
                            byte-identical canonical manifest
torn journal tail           intact prefix salvaged, sweep completes
crash-dump flood            dump directory stays within its rotation cap
==========================  =============================================

``run_chaos_campaign`` executes every scenario in an isolated cache root
and reports per-scenario verdicts plus a coverage fraction; CI gates the
campaign at >= 90% (which, at this scenario count, means all of them).

Fault *injection* itself lives here too (:func:`inject_fault`): a
``SweepTask.chaos`` spec plants one fault inside the execution path, with
an optional at-most-once flag file so a fault fires exactly one time across
any number of processes.
"""

import json
import os
import random
import shutil
import signal
import tempfile
import time

from repro.common.errors import SimulationError
from repro.harness import cache as cache_mod
from repro.harness.supervisor import (
    RetryPolicy,
    SweepInterrupted,
    supervised_sweep,
)
from repro.harness.sweep import SweepTask

#: Mini-C source of the chaos grid's tasks; trivially fast to compile/run.
CHAOS_SOURCE = """
int main() {
    int s = 0;
    for (int i = 0; i < %d; i++) { s += i * 7 - (i >> 1); }
    __out(s);
    return 0;
}
"""


# ---------------------------------------------------------------------------
# Fault injection (consumed by repro.harness.sweep)
# ---------------------------------------------------------------------------


def _claim_once(flag_path):
    """Atomically claim an at-most-once fault across processes."""
    try:
        fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False
    os.close(fd)
    return True


def inject_fault(spec):
    """Fire one planted fault; called from the sweep execution path.

    Spec keys: ``mode`` (``kill`` / ``sleep`` / ``raise-transient`` /
    ``raise-deterministic``), optional ``once`` (flag-file path: the fault
    fires for exactly one claimer), optional ``seconds`` (sleep length).

    ``kill`` only ever fires inside a pool worker — the main process checks
    ``multiprocessing.parent_process()`` and refuses, so a broken-pool
    inline fallback can never shoot the supervisor itself.
    """
    once = spec.get("once")
    if once is not None and not _claim_once(once):
        return
    mode = spec.get("mode")
    if mode == "kill":
        import multiprocessing

        if multiprocessing.parent_process() is None:
            return  # never kill the supervising process
        os.kill(os.getpid(), signal.SIGKILL)
    elif mode == "sleep":
        time.sleep(float(spec.get("seconds", 60.0)))
    elif mode == "raise-transient":
        raise OSError("chaos: injected transient OS failure")
    elif mode == "raise-deterministic":
        raise SimulationError("chaos: injected deterministic failure",
                              context={"chaos": "planted"})
    else:
        raise ValueError(f"unknown chaos mode {mode!r}")


def corrupt_file(path, rng, mode=None):
    """Seeded on-disk corruption: bit-flip or truncate one cache entry."""
    mode = mode or rng.choice(("bitflip", "truncate", "garbage"))
    size = os.path.getsize(path)
    if mode == "truncate" and size > 1:
        with open(path, "rb+") as handle:
            handle.truncate(rng.randrange(1, size))
    elif mode == "garbage":
        with open(path, "wb") as handle:
            handle.write(bytes(rng.randrange(256)
                               for _ in range(rng.randrange(4, 64))))
    else:
        offset = rng.randrange(max(size, 1))
        with open(path, "rb+") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            original = byte[0] if byte else 0
            handle.seek(offset)
            handle.write(bytes([original ^ (1 << rng.randrange(8))]))
    return mode


# ---------------------------------------------------------------------------
# Scenario helpers
# ---------------------------------------------------------------------------


class _ScenarioContext:
    """Per-scenario isolation: fresh cache root + workdir + sub-seeded RNG."""

    def __init__(self, name, workdir, seed, jobs):
        self.name = name
        self.dir = os.path.join(workdir, name)
        os.makedirs(self.dir, exist_ok=True)
        self.rng = random.Random(f"{seed}/{name}")
        self.jobs = jobs

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def fresh_cache(self, label="cache"):
        cache_mod.configure(self.path(label), enabled=True)


#: The ISA rotation of the chaos grids.  Seeded scenarios randomize over
#: task *indices*, so the order here is part of the campaign's determinism
#: contract: riscv/straight keep their historical slots 0/1, bb extends.
_GRID_ROTATION = ("riscv", "straight", "bb")


def _grid(prefix, count=2, chaos_on=None, chaos=None, timeout_s=None):
    """A tiny timing grid rotating over the registered ISAs; ``chaos_on``
    plants ``chaos`` on one task."""
    from repro import isa as isa_registry

    tasks = []
    for index in range(count):
        descriptor = isa_registry.get(_GRID_ROTATION[index % len(_GRID_ROTATION)])
        config = descriptor.config_factories["2way"]()
        target = next(iter(descriptor.targets))
        tasks.append(SweepTask(
            f"{prefix}/t{index}",
            f"{prefix}-tiny{index}",
            config=config,
            compile_opts={"target": target,
                          "source_text": CHAOS_SOURCE % (16 + index)},
            timeout_s=timeout_s,
            chaos=chaos if chaos_on == index else None,
        ))
    return tasks


def _no_sleep_policy(**kwargs):
    kwargs.setdefault("sleep", lambda _s: None)
    return RetryPolicy(**kwargs)


def _all_completed(report, tasks):
    ok = not report.manifest["quarantined"]
    for task in tasks:
        payload = report.results.get(task.task_id)
        ok = ok and payload is not None and payload.get("kind") == "timing"
    return ok


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def scenario_worker_kill(ctx):
    """A pool worker is SIGKILLed mid-task: harvest + inline fallback."""
    ctx.fresh_cache()
    victim = ctx.rng.randrange(3)
    tasks = _grid("kill", count=3, chaos_on=victim,
                  chaos={"mode": "kill", "once": ctx.path("kill.flag")})
    report = supervised_sweep(tasks, jobs=max(2, ctx.jobs),
                              checkpoint=ctx.path("journal.jsonl"),
                              policy=_no_sleep_policy())
    recovered = _all_completed(report, tasks)
    return {
        "ok": recovered,
        "detail": {
            "victim": tasks[victim].task_id,
            "inline_fallback": report.telemetry["inline_fallback"],
            "retries_used": report.telemetry["retries_used"],
            "completed": len(report.manifest["completed"]),
        },
    }


def scenario_transient_retry(ctx):
    """A one-shot transient OS error: retried with backoff, then succeeds."""
    ctx.fresh_cache()
    tasks = _grid("transient", count=2, chaos_on=0,
                  chaos={"mode": "raise-transient",
                         "once": ctx.path("transient.flag")})
    report = supervised_sweep(tasks, jobs=1,
                              checkpoint=ctx.path("journal.jsonl"),
                              policy=_no_sleep_policy())
    return {
        "ok": (_all_completed(report, tasks)
               and report.telemetry["retries_used"] == 1
               and report.telemetry["rounds"] == 2),
        "detail": {
            "retries_used": report.telemetry["retries_used"],
            "rounds": report.telemetry["rounds"],
            "quarantined": report.manifest["failed"],
        },
    }


def scenario_deadline_expiry(ctx):
    """A hung task blows its deadline every attempt: clean quarantine."""
    ctx.fresh_cache()
    quarantine = ctx.path("quarantine")
    tasks = _grid("deadline", count=2, chaos_on=1,
                  chaos={"mode": "sleep", "seconds": 30.0},
                  timeout_s=0.2)
    report = supervised_sweep(
        tasks, jobs=1, checkpoint=ctx.path("journal.jsonl"),
        policy=_no_sleep_policy(max_attempts=2), quarantine_dir=quarantine,
    )
    hung = tasks[1].task_id
    entry = next((e for e in report.manifest["quarantined"]
                  if e["task"] == hung), None)
    dumps = [f for f in os.listdir(quarantine)
             if f.startswith("crash-")] if os.path.isdir(quarantine) else []
    return {
        "ok": (report.manifest["failed"] == [hung]
               and entry is not None
               and entry["type"] == "RunTimeoutError"
               and entry["class"] == "transient"
               and report.telemetry["attempts"][hung] == 2
               and len(dumps) == 1
               and report.manifest["completed"] == [tasks[0].task_id]),
        "detail": {
            "quarantined": report.manifest["failed"],
            "attempts": report.telemetry["attempts"],
            "crash_dumps": dumps,
        },
    }


def scenario_deterministic_quarantine(ctx):
    """A deterministic failure: immediate quarantine, zero retries burned."""
    ctx.fresh_cache()
    quarantine = ctx.path("quarantine")
    tasks = _grid("det", count=2, chaos_on=0,
                  chaos={"mode": "raise-deterministic"})
    report = supervised_sweep(
        tasks, jobs=1, checkpoint=ctx.path("journal.jsonl"),
        policy=_no_sleep_policy(), quarantine_dir=quarantine,
    )
    bad = tasks[0].task_id
    entry = next((e for e in report.manifest["quarantined"]
                  if e["task"] == bad), None)
    dumps = [f for f in os.listdir(quarantine)
             if f.startswith("crash-")] if os.path.isdir(quarantine) else []
    return {
        "ok": (report.manifest["failed"] == [bad]
               and entry is not None and entry["class"] == "deterministic"
               and report.telemetry["retries_used"] == 0
               and report.telemetry["rounds"] == 1
               and len(dumps) == 1),
        "detail": {
            "quarantined": report.manifest["failed"],
            "retries_used": report.telemetry["retries_used"],
            "crash_dumps": dumps,
        },
    }


def scenario_cache_corruption(ctx):
    """Seeded bit-flips/truncations: fsck detects all, recompute matches."""
    ctx.fresh_cache()
    tasks = _grid("corrupt", count=2)
    baseline = supervised_sweep(tasks, jobs=1)
    if baseline.manifest["failed"]:
        return {"ok": False, "detail": {"baseline_failed":
                                        baseline.manifest["failed"]}}
    root = cache_mod.cache_root()
    layers = (cache_mod.ResultCache(root), cache_mod.ArtifactCache(root))
    entries = [p for layer in layers for p in layer.entry_paths()]
    victims = sorted(ctx.rng.sample(entries,
                                    max(1, (len(entries) + 1) // 2)))
    modes = {path: corrupt_file(path, ctx.rng) for path in victims}
    scan = cache_mod.fsck(root, repair=False)
    detected = sorted(path for layer in scan["layers"].values()
                      for path in layer["corrupt"])
    repaired = cache_mod.fsck(root, repair=True)
    quarantined = [path for layer in repaired["layers"].values()
                   for path in layer["quarantined"]]
    # Live path: corrupted entries must recompute, bit-identically.
    rerun = supervised_sweep(tasks, jobs=1)
    return {
        "ok": (detected == victims
               and not scan["ok"]
               and repaired["ok"]
               and len(quarantined) == len(victims)
               and rerun.results == baseline.results
               and not rerun.manifest["failed"]),
        "detail": {
            "entries": len(entries),
            "corrupted": {os.path.basename(p): m for p, m in modes.items()},
            "detected": len(detected),
            "quarantined": len(quarantined),
            "recompute_matches": rerun.results == baseline.results,
        },
    }


def scenario_interrupt_resume(ctx):
    """Kill the sweep at a random checkpoint; resume must be byte-identical."""
    ctx.fresh_cache("cache-ref")
    tasks = _grid("resume", count=3)
    reference = supervised_sweep(tasks, jobs=1,
                                 checkpoint=ctx.path("ref.jsonl"))
    ctx.fresh_cache("cache-int")
    cut = ctx.rng.randrange(1, len(tasks))
    journal = ctx.path("journal.jsonl")
    interrupted_at = None
    try:
        supervised_sweep(tasks, jobs=1, checkpoint=journal,
                         interrupt_after=cut)
    except SweepInterrupted as exc:
        interrupted_at = exc.completed
    resumed = supervised_sweep(tasks, jobs=1, checkpoint=journal,
                               resume=True)
    return {
        "ok": (interrupted_at == cut
               and resumed.telemetry["resumed"]
               and len(resumed.telemetry["resumed"]) == cut
               and resumed.manifest_bytes() == reference.manifest_bytes()
               and resumed.results == reference.results),
        "detail": {
            "interrupted_after": interrupted_at,
            "resumed": resumed.telemetry["resumed"],
            "manifest_bytes_equal":
                resumed.manifest_bytes() == reference.manifest_bytes(),
        },
    }


def scenario_torn_journal(ctx):
    """A torn journal tail: the intact prefix is salvaged, the sweep heals."""
    ctx.fresh_cache()
    tasks = _grid("torn", count=3)
    journal = ctx.path("journal.jsonl")
    reference = supervised_sweep(tasks, jobs=1, checkpoint=ctx.path("ref.jsonl"))
    try:
        supervised_sweep(tasks, jobs=1, checkpoint=journal, interrupt_after=2)
    except SweepInterrupted:
        pass
    with open(journal, "a") as handle:
        handle.write('{"record": "done", "key": "deadbeef", "task": "x"')
    resumed = supervised_sweep(tasks, jobs=1, checkpoint=journal, resume=True)
    salvage = resumed.telemetry["journal_salvage"]
    return {
        "ok": (salvage["torn"] == 1
               and salvage["replayed"] == 2
               and resumed.manifest_bytes() == reference.manifest_bytes()
               and not resumed.manifest["failed"]),
        "detail": {"salvage": salvage,
                   "resumed": resumed.telemetry["resumed"]},
    }


def scenario_crashdump_flood(ctx):
    """Many failing tasks cannot flood the disk: dumps rotate at the cap."""
    from repro.guardrails import crashdump

    ctx.fresh_cache()
    quarantine = ctx.path("quarantine")
    tasks = _grid("flood", count=6)
    for task in tasks:
        task.chaos = {"mode": "raise-deterministic"}
    cap = 3
    previous = crashdump.configure_rotation(cap)
    try:
        report = supervised_sweep(tasks, jobs=1, quarantine_dir=quarantine,
                                  policy=_no_sleep_policy())
    finally:
        crashdump.configure_rotation(previous)
    dumps = [f for f in os.listdir(quarantine) if f.startswith("crash-")]
    return {
        "ok": (len(report.manifest["failed"]) == len(tasks)
               and 0 < len(dumps) <= cap),
        "detail": {"cap": cap, "dumps": len(dumps),
                   "quarantined": len(report.manifest["failed"])},
    }


#: Registry, in documentation order.  ``quick`` names the CI smoke subset.
SCENARIOS = {
    "worker-kill": scenario_worker_kill,
    "transient-retry": scenario_transient_retry,
    "deadline-expiry": scenario_deadline_expiry,
    "deterministic-quarantine": scenario_deterministic_quarantine,
    "cache-corruption": scenario_cache_corruption,
    "interrupt-resume": scenario_interrupt_resume,
    "torn-journal": scenario_torn_journal,
    "crashdump-flood": scenario_crashdump_flood,
}

QUICK_SCENARIOS = ("worker-kill", "cache-corruption", "interrupt-resume")

#: CI gate: the campaign passes only at or above this recovery coverage.
COVERAGE_GATE = 0.9


class ChaosReport:
    """Per-scenario verdicts + the coverage fraction the CI gate checks."""

    def __init__(self, seed, scenarios, workdir):
        self.seed = seed
        self.scenarios = scenarios
        self.workdir = workdir

    @property
    def coverage(self):
        if not self.scenarios:
            return 0.0
        return sum(1 for s in self.scenarios if s["ok"]) / len(self.scenarios)

    @property
    def ok(self):
        return bool(self.scenarios) and self.coverage >= COVERAGE_GATE

    def as_dict(self):
        return {
            "seed": self.seed,
            "coverage": round(self.coverage, 4),
            "coverage_gate": COVERAGE_GATE,
            "ok": self.ok,
            "scenarios": self.scenarios,
            "workdir": self.workdir,
        }

    def text(self):
        lines = [f"chaos campaign (seed {self.seed}): "
                 f"{sum(1 for s in self.scenarios if s['ok'])}"
                 f"/{len(self.scenarios)} scenarios recovered "
                 f"({self.coverage:.0%}, gate {COVERAGE_GATE:.0%})"]
        for scenario in self.scenarios:
            verdict = "ok  " if scenario["ok"] else "FAIL"
            lines.append(f"  [{verdict}] {scenario['name']} "
                         f"({scenario['wall_s']:.2f}s)")
            if not scenario["ok"]:
                lines.append(f"         {json.dumps(scenario['detail'])}")
        return "\n".join(lines)


def run_chaos_campaign(seed=20260808, scenarios=None, jobs=2, workdir=None,
                       keep_workdir=False, progress=None):
    """Execute the campaign; returns a :class:`ChaosReport`.

    Every scenario runs against its own fresh cache root under ``workdir``
    (a temp dir by default, removed afterwards unless ``keep_workdir`` —
    CI keeps it and uploads the journals and quarantine directories as
    artifacts).  The process-global cache configuration is saved and
    restored around the campaign.
    """
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown chaos scenarios: {', '.join(unknown)}; "
                       f"choose from {', '.join(SCENARIOS)}")
    owned_workdir = workdir is None
    if owned_workdir:
        workdir = tempfile.mkdtemp(prefix="straight-chaos-")
    os.makedirs(workdir, exist_ok=True)

    previous_state = cache_mod.swap_state()
    results = []
    try:
        for name in names:
            ctx = _ScenarioContext(name, workdir, seed, jobs)
            started = time.perf_counter()
            try:
                outcome = SCENARIOS[name](ctx)
            except Exception as exc:  # noqa: BLE001 - a crash is a failure
                outcome = {"ok": False,
                           "detail": {"exception": f"{type(exc).__name__}: "
                                                   f"{exc}"}}
            outcome["name"] = name
            outcome["wall_s"] = round(time.perf_counter() - started, 3)
            results.append(outcome)
            if progress is not None:
                progress(name, outcome["ok"], outcome["wall_s"])
    finally:
        cache_mod.swap_state(previous_state)
        if owned_workdir and not keep_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir = None
    return ChaosReport(seed, results, workdir)
