"""Parallel sweep engine over the experiment grid, with persistent caching.

The paper's evaluation is a grid: (workload × binary × CoreConfig), plus a
handful of custom-compiled ablation points.  This module turns one grid
point into a *spawn-safe task descriptor* (:class:`SweepTask`), fans task
batches out across CPU cores with a process pool, and backs every execution
with the persistent content-addressed caches of :mod:`repro.harness.cache`:

* compiled binaries come from the artifact cache (shared between RAW/RE+
  figure runs and across processes/runs),
* finished runs come from the result cache, keyed on the binary's SHA-256
  plus the config's full timing identity (``CoreConfig.cache_key()``) plus
  the engine schema version.

Guarantees:

* **Determinism** — results are returned in task-submission order, and a
  cache-served result is bit-identical to a fresh one (the cache stores the
  complete ``SimStats`` counter surface, reconstructed exactly).
* **Degradation, not death** — a task that raises inside a worker comes
  back as a structured error record (a :class:`SimulationError` payload
  with traceback); the sweep writes a crash dump, notes the failure in the
  manifest, and completes every remaining task.  A worker process dying
  outright (broken pool) re-runs the unfinished tasks inline.
* **Budgets** — each task gets a wall-clock budget inside its worker
  (:func:`repro.harness.runner.deadline`).

``run_sweep`` never requires the pool: with ``jobs <= 1`` everything runs
inline in the calling process, and tasks fully served by the cache never
spawn a worker at all (the warm path of ``examples/reproduce_paper.py``).

Each identity has one builder: :meth:`SweepTask.checkpoint_key` names a
task's content (the journal and the in-process memo of
:func:`ensure_results` key on it), :func:`result_key` gives its
result-cache key and :func:`compile_key` the artifact key of a
compilation.  :func:`execute_task` is the only code that looks up, runs
and stores a result.
"""

import os
import time
import traceback

from repro.common.errors import SimulationError
from repro.harness import cache as cache_mod
from repro.harness.runner import deadline
from repro.uarch.stats import SimStats

#: Default per-task wall-clock budget inside a worker (seconds).
DEFAULT_TASK_TIMEOUT_S = 600.0


class SweepTask:
    """One spawn-safe grid point.

    Two shapes:

    * registry tasks — ``workload``/``binary_label`` name a cross-validated
      registry build (the common case for the paper figures);
    * custom-compile tasks — ``compile_opts`` describes a bespoke backend
      configuration applied to the workload's source (the ablations).

    ``config`` is ``None`` for functional tasks (instruction mix, distance
    distributions), which need an interpreter run but no timing model.

    ``attribution=True`` attaches a stall-attribution accountant
    (:mod:`repro.obs`) to the timing run; the payload then carries the
    per-bucket slot charges, and the result-cache key includes the flag so
    attributed and plain runs never alias (the attributed run disables
    idle-cycle skipping; its cycle counts are still bit-identical).
    """

    __slots__ = ("task_id", "workload", "binary_label", "config",
                 "iterations", "max_distance", "compile_opts", "kind",
                 "timeout_s", "attribution", "chaos", "sampling")

    def __init__(self, task_id, workload, binary_label=None, config=None,
                 iterations=None, max_distance=1023, compile_opts=None,
                 kind="timing", timeout_s=None, attribution=False,
                 chaos=None, sampling=None):
        self.task_id = task_id
        self.workload = workload
        self.binary_label = binary_label
        self.config = config
        self.iterations = iterations
        self.max_distance = max_distance
        self.compile_opts = dict(compile_opts) if compile_opts else None
        self.kind = kind  # 'timing' | 'functional'
        self.timeout_s = timeout_s
        self.attribution = attribution
        #: Fault-injection spec consumed by :mod:`repro.harness.chaos`; the
        #: campaign's scenarios plant these, production grids leave it None.
        self.chaos = dict(chaos) if chaos else None
        #: Sampled-simulation schedule (a ``SamplingParams.as_dict()``
        #: payload); ``None`` runs the full cycle model.  Part of every
        #: cache key — a sampled estimate must never serve a full-run
        #: request or vice versa.
        self.sampling = dict(sampling) if sampling else None

    def checkpoint_key(self):
        """Stable identity of this grid point: the journal and memo key.

        Covers everything that determines the payload — the full config
        timing identity, workload parameters, backend options (inline
        source included), task kind, attribution, sampling and the engine
        schema/toolchain tags — so a journal entry is replayed, and a
        memoized payload served, only for the exact same work, and never
        across a toolchain or schema bump.
        """
        return cache_mod.canonical_key({
            "task": self.task_id,
            "workload": self.workload,
            "binary": self.binary_label,
            "config": None if self.config is None else self.config.cache_key(),
            "iterations": self.iterations,
            "max_distance": self.max_distance,
            "opts": self.compile_opts,
            "kind": self.kind,
            "attribution": bool(self.attribution),
            "sampling": self.sampling,
            "tag": cache_mod.TOOLCHAIN_TAG,
            "schema": cache_mod.SCHEMA_VERSION,
        })

    def __repr__(self):
        return f"SweepTask({self.task_id})"


# ---------------------------------------------------------------------------
# Binary resolution (artifact-cached)
# ---------------------------------------------------------------------------


def compile_key(source, target, max_distance, backend_opts):
    """The artifact-cache key of one compilation."""
    return {
        "kind": "compile",
        "tag": cache_mod.TOOLCHAIN_TAG,
        "source": cache_mod.source_digest(source),
        "target": target,
        "max_distance": max_distance,
        "opts": dict(sorted(backend_opts.items())),
    }


def compile_binary_cached(source, target="straight", max_distance=1023,
                          **backend_opts):
    """Compile one source/target/options point, persistently memoized.

    Returns a :class:`~repro.core.api.Binary`.  ``target`` is any name the
    ISA registry resolves (``riscv``, ``straight``, ``straight-raw``,
    ``bb``, ...); unknown targets raise
    :class:`~repro.common.errors.UnknownIsaError` listing the valid
    choices.  The artifact key covers the source digest, the target name,
    ``max_distance`` and every backend option, so RAW and RE+ (or
    sinking/demotion ablation variants) never alias while identical
    requests across figures and runs share one compilation.
    """
    from repro import isa as isa_registry

    descriptor, target_opts = isa_registry.resolve_target(target)
    artifact_key = compile_key(source, target, max_distance, backend_opts)
    artifacts = cache_mod.artifact_cache()
    if artifacts is not None:
        binary = artifacts.get(artifact_key)
        if binary is not None:
            return binary

    from repro.core.api import Binary
    from repro.frontend import compile_source

    module = compile_source(source)
    # Variant targets carry baked-in options (e.g. straight-raw disables
    # redundancy elimination); explicit backend options always win.
    opts = dict(target_opts)
    opts.update(backend_opts)
    compilation = descriptor.compile_module(
        module, max_distance=max_distance, **opts
    )
    binary = Binary(descriptor.name, compilation.link(), compilation)
    cache_mod.binary_digest(binary)  # memoize the digest into the pickle
    if artifacts is not None:
        artifacts.put(artifact_key, binary)
    return binary


def _resolve_binary(task, compile_missing=True):
    """The task's binary, or ``None`` when it is not already cached and
    ``compile_missing`` is false (the parent's cheap cache pre-pass)."""
    from repro.workloads import build_workload, get_workload
    from repro.workloads.common import peek_cached_build

    if task.compile_opts is not None:
        opts = dict(task.compile_opts)
        # Inline-source tasks (the bench grid) carry their program text in
        # the descriptor; registry tasks resolve it by workload name.
        source = opts.pop("source_text", None)
        if source is None:
            source = get_workload(task.workload).source(task.iterations)
        target = opts.pop("target", "straight")
        if not compile_missing:
            # Probe without compiling: re-issue the lookup only.
            artifacts = cache_mod.artifact_cache()
            return None if artifacts is None else artifacts.get(
                compile_key(source, target, task.max_distance, opts))
        return compile_binary_cached(
            source, target=target, max_distance=task.max_distance, **opts
        )
    if not compile_missing:
        build = peek_cached_build(task.workload, task.iterations,
                                  task.max_distance)
        return None if build is None else build.all()[task.binary_label]
    return build_workload(
        task.workload, task.iterations, task.max_distance
    ).all()[task.binary_label]


# ---------------------------------------------------------------------------
# Single-task execution (result-cached)
# ---------------------------------------------------------------------------


def result_key(task, binary):
    """The result-cache key of ``task`` run on ``binary``.

    Functional runs key on the binary alone.  Timing runs add the config's
    timing identity and the attribution flag, and sampled runs their
    schedule: a sampled estimate never serves a full run or vice versa.
    Only sampled runs carry a ``sampling`` field, so full-run entries keep
    the keys they had before sampling existed.
    """
    digest = cache_mod.binary_digest(binary)
    if task.kind == "functional":
        return {"kind": "functional", "tag": cache_mod.TOOLCHAIN_TAG,
                "binary": digest}
    key = {
        "kind": "timing",
        "tag": cache_mod.TOOLCHAIN_TAG,
        "binary": digest,
        "config": task.config.cache_key(),
        "warm": True,
        "guardrails": False,
        "attribution": bool(task.attribution),
    }
    if task.sampling:
        key["sampling"] = dict(task.sampling)
    return key


def _timing_payload(result):
    return {
        "kind": "timing",
        "stats": result.stats.as_dict(),
        "output": list(result.output),
        "steps": result.run_result.steps,
    }


def _functional_payload(interp, run_result):
    return {
        "kind": "functional",
        "output": list(run_result.output),
        "steps": run_result.steps,
        "class_counts": interp.class_counts(),
        "mnemonic_counts": dict(interp.mnemonic_counts),
        "distance_hist": {
            str(d): c for d, c in getattr(interp, "distance_hist", {}).items()
        },
    }


def rehydrate_timing(binary, config, payload):
    """A :class:`SimulationResult` rebuilt from a cached timing payload."""
    from repro.core.api import SimulationResult
    from repro.straight.interpreter import RunResult

    stats = SimStats.from_dict(payload["stats"])
    run_result = RunResult("halt", payload["steps"], list(payload["output"]))
    return SimulationResult(binary, config, run_result, None, stats)


def _run_task(task, binary):
    """The payload of one fresh run of ``task`` on ``binary``."""
    if task.kind == "functional":
        from repro.core.api import run_functional

        run = run_functional(binary)
        return _functional_payload(run.interpreter, run.run_result)
    if task.sampling is not None:
        if task.attribution:
            raise ValueError(
                "attribution needs every committed instruction; "
                "run it on a full (non-sampled) task"
            )
        from repro.harness.sampling import SamplingParams, simulate_sampled

        result = simulate_sampled(binary, task.config,
                                  SamplingParams.from_dict(task.sampling),
                                  warm_caches=True)
        return _timing_payload(result)
    from repro.core.api import simulate

    observer = None
    accountant = None
    if task.attribution:
        from repro.obs import ObserverBus, StallAttributionAccountant

        accountant = StallAttributionAccountant()
        observer = ObserverBus([accountant])
    result = simulate(binary, task.config, warm_caches=True,
                      observer=observer)
    payload = _timing_payload(result)
    if accountant is not None:
        payload["attribution"] = accountant.report()
    return payload


def execute_task(task, payload_only=True):
    """Run one task in this process, via the result cache when possible.

    This is the only code that looks up, runs and stores a result.  Returns
    the JSON-safe payload dict (what workers ship back to the parent); set
    ``payload_only=False`` to get ``(payload, served_from_cache)``.
    """
    binary = _resolve_binary(task)
    key = result_key(task, binary)
    results = cache_mod.result_cache()
    payload = None if results is None else results.get(key)
    served = payload is not None
    if not served:
        payload = _run_task(task, binary)
        if results is not None:
            results.put(key, payload)
    return payload if payload_only else (payload, served)


def metrics_view(payload):
    """A functional payload with ``distance_hist`` keys restored to ints."""
    view = dict(payload)
    view["distance_hist"] = {
        int(d): c for d, c in payload.get("distance_hist", {}).items()
    }
    return view


def payload_or_raise(payload, label=""):
    """Unwrap one payload, re-raising worker-side failures in the parent."""
    if payload.get("kind") == "error":
        raise SimulationError(
            f"{label or payload.get('task', 'sweep task')} failed in the "
            f"sweep engine: {payload.get('type')}: {payload.get('message')}",
            context={"traceback": payload.get("traceback")},
        )
    return payload


# ---------------------------------------------------------------------------
# Task identity and the in-process memo (what the experiment runners consume)
# ---------------------------------------------------------------------------


def unique_tasks(tasks):
    """``tasks`` with repeated ids dropped, first occurrence kept.

    A task id names one unit of work: two tasks that share an id but not a
    :meth:`SweepTask.checkpoint_key` raise :class:`ValueError` instead of
    one silently standing in for the other.  Keys are computed only for
    repeated ids.
    """
    first = {}
    for task in tasks:
        kept = first.setdefault(task.task_id, task)
        if kept is not task and kept.checkpoint_key() != task.checkpoint_key():
            raise ValueError(
                f"two different tasks share the id {task.task_id!r}"
            )
    return list(first.values())


#: Payloads :func:`ensure_results` resolved in this process, keyed on the
#: task's content (:meth:`SweepTask.checkpoint_key`), never its id.  No
#: bound: only the experiment grids, ``timed_run`` and the density report
#: fill it (every experiment together is 73 units); the serve tier and
#: ``straight sweep`` call :func:`run_sweep` directly.
#: :func:`repro.harness.runner.clear_cache` empties it.
_memo = {}


def ensure_results(tasks, jobs=1, progress=None, diagnostics_dir=None):
    """Guarantee a payload for every task; returns ``{task_id: payload}``.

    Tasks already resolved in this process are served from the memo; the
    rest go through :func:`run_sweep` (persistent cache, then ``jobs``
    workers; ``None`` means one per CPU).  Error payloads are returned but
    not memoized, so a later call runs the task again.  This is the single
    entry point the experiment runners use.
    """
    tasks = unique_tasks(tasks)
    keys = {task.task_id: task.checkpoint_key() for task in tasks}
    payloads = {task_id: _memo[key] for task_id, key in keys.items()
                if key in _memo}
    missing = [task for task in tasks if task.task_id not in payloads]
    if missing:
        report = run_sweep(missing, jobs=jobs, progress=progress,
                           diagnostics_dir=diagnostics_dir)
        payloads.update(report.results)
        _memo.update((keys[task_id], payload)
                     for task_id, payload in report.results.items()
                     if payload.get("kind") != "error")
    return {task.task_id: payloads[task.task_id] for task in tasks}

# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


def _error_payload(task, exc):
    record = {
        "kind": "error",
        "task": task.task_id,
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }
    if isinstance(exc, SimulationError):
        record["error"] = exc.as_dict()
    return record


def _worker_init(cache_root, cache_enabled):
    cache_mod.configure(cache_root, enabled=cache_enabled)


def _maybe_inject_chaos(task):
    """Chaos-campaign hook: fire the task's planted fault, if any."""
    if getattr(task, "chaos", None):
        from repro.harness.chaos import inject_fault

        inject_fault(task.chaos)


def _execute_guarded(task):
    """Run one task under its deadline; returns ``(payload, served)``.

    Never raises: every failure — including a planted chaos fault — comes
    back as a structured error payload.  Shared by the inline path, the
    broken-pool fallback and the worker entry so all three classify and
    report failures identically.
    """
    try:
        timeout = task.timeout_s or DEFAULT_TASK_TIMEOUT_S
        with deadline(timeout, task.task_id):
            _maybe_inject_chaos(task)
            return execute_task(task, payload_only=False)
    except Exception as exc:  # noqa: BLE001 - degrade to a structured record
        return _error_payload(task, exc), False


def _worker_run(task):
    """Top-level (spawn-picklable) worker entry: never raises."""
    payload, served = _execute_guarded(task)
    return task.task_id, payload, served


class SweepReport:
    """Ordered results + manifest + cache accounting for one sweep."""

    def __init__(self, results, manifest, cache_report, wall_s):
        #: ``{task_id: payload}`` in task-submission order; error payloads
        #: have ``kind == 'error'`` and are *also* listed in the manifest.
        self.results = results
        self.manifest = manifest
        self.cache = cache_report
        self.wall_s = wall_s

    @property
    def ok(self):
        return not self.manifest["failed"]

    def result_hit_rate(self):
        """Fraction of tasks served from the persistent result cache."""
        total = len(self.manifest["requested"])
        return self.manifest["cache_served"] / total if total else 0.0

    def as_dict(self):
        return {
            "results": self.results,
            "manifest": self.manifest,
            "cache": self.cache,
            "wall_s": self.wall_s,
        }


def run_sweep(tasks, jobs=None, progress=None, diagnostics_dir=None,
              raise_on_error=False):
    """Execute ``tasks`` (deduplicated by id), fanned out over ``jobs`` cores.

    Returns a :class:`SweepReport`.  ``jobs=None`` uses ``os.cpu_count()``;
    ``jobs<=1`` runs inline.  ``progress`` is an optional callable receiving
    ``(done, total, task_id, status, seconds)`` events.  Two tasks that share
    an id but not their content raise :class:`ValueError` (see
    :func:`unique_tasks`).
    """
    started = time.perf_counter()
    ordered = unique_tasks(tasks)

    if jobs is None:
        jobs = os.cpu_count() or 1
    results = {}
    errors = []
    done = 0
    cache_served = 0

    def record(task, payload, seconds, status):
        nonlocal done, cache_served
        done += 1
        results[task.task_id] = payload
        if status == "cache":
            cache_served += 1
        if payload.get("kind") == "error":
            record_failure(task, payload)
        if progress is not None:
            progress(done, len(ordered), task.task_id, status, seconds)

    def record_failure(task, payload):
        entry = {
            "experiment": task.task_id,
            "type": payload.get("type", "Error"),
            "message": payload.get("message", ""),
        }
        if raise_on_error:
            raise SimulationError(
                f"sweep task {task.task_id} failed: "
                f"{entry['type']}: {entry['message']}"
            )
        if diagnostics_dir:
            from repro.guardrails.crashdump import write_crash_dump

            exc = SimulationError(
                f"{entry['type']}: {entry['message']}",
                context={"task": task.task_id},
            )
            entry["crash_dump"] = write_crash_dump(
                diagnostics_dir, task.task_id, exc,
                extra={"worker": payload},
            )
        errors.append(entry)

    # Cheap parent-side pre-pass: anything the caches can fully serve never
    # reaches the pool (this is the entire warm path).
    pending = []
    for task in ordered:
        served = None
        if cache_mod.result_cache() is not None:
            try:
                binary = _resolve_binary(task, compile_missing=False)
            except Exception:  # noqa: BLE001 - unprobeable != failed; the
                binary = None  # worker will produce the structured error
            if binary is not None:
                served = cache_mod.result_cache().get(
                    result_key(task, binary))
        if served is not None:
            record(task, served, 0.0, "cache")
        else:
            pending.append(task)

    inline_fallback = []
    if pending and jobs > 1:
        inline_fallback = _run_pool(pending, jobs, record)
    elif pending:
        for task in pending:
            task_started = time.perf_counter()
            payload, hit = _execute_guarded(task)
            record(task, payload, time.perf_counter() - task_started,
                   "cache" if hit else "run")

    manifest = {
        "requested": [t.task_id for t in ordered],
        "completed": [t.task_id for t in ordered
                      if results.get(t.task_id, {}).get("kind") != "error"],
        "failed": [e["experiment"] for e in errors],
        "errors": errors,
        "jobs": jobs,
        "cache_served": cache_served,
        # Tasks that lost their pool worker and re-ran in the parent; the
        # supervisor and the chaos campaign both audit this list.
        "inline_fallback": inline_fallback,
    }
    if diagnostics_dir and errors:
        from repro.guardrails.crashdump import write_manifest

        manifest["manifest_path"] = write_manifest(diagnostics_dir, manifest)

    ordered_results = {t.task_id: results[t.task_id] for t in ordered}
    return SweepReport(ordered_results, manifest, cache_mod.cache_report(),
                       round(time.perf_counter() - started, 6))


def _run_pool(pending, jobs, record):
    """Farm ``pending`` out to a spawn pool; degrade broken pools to inline.

    Returns the task ids that actually re-ran inline after the pool broke.
    Results that finished in a worker *before* the break are harvested from
    their futures, not recomputed, so a partial pool failure never
    double-runs (or double-counts) completed work.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    remaining = {task.task_id: task for task in pending}
    task_started = {task.task_id: time.perf_counter() for task in pending}
    inline_fallback = []

    def record_pooled(task, payload, served):
        del remaining[task.task_id]
        status = ("cache" if served
                  and payload.get("kind") != "error" else "run")
        record(task, payload,
               time.perf_counter() - task_started[task.task_id], status)

    futures = {}
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)),
            mp_context=context,
            initializer=_worker_init,
            initargs=(cache_mod.cache_root(), cache_mod.is_enabled()),
        ) as pool:
            futures = {task.task_id: pool.submit(_worker_run, task)
                       for task in pending}
            for task in pending:
                _task_id, payload, served = futures[task.task_id].result()
                record_pooled(task, payload, served)
    except Exception:  # pool itself died (killed worker, spawn failure)
        for task in list(remaining.values()):
            # Harvest work that finished before the pool broke: its future
            # holds a real result even though the executor is now dead.
            future = futures.get(task.task_id)
            if future is not None and future.done():
                try:
                    _task_id, payload, served = future.result()
                except Exception:  # noqa: BLE001 - future died with the pool
                    pass
                else:
                    record_pooled(task, payload, served)
                    continue
            started = time.perf_counter()
            payload, _served = _execute_guarded(task)
            del remaining[task.task_id]
            inline_fallback.append(task.task_id)
            record(task, payload, time.perf_counter() - started, "inline")
    return inline_fallback
