"""The serve execution layer: batching jobs onto the sweep engine.

Fresh jobs arrive from the HTTP front end and are executed one of two
ways:

* **Pool-batched** — ``simulate`` jobs queue up, and a dispatcher
  coroutine starts a batch as soon as a job is queued and one of the
  batch slots is free, moving every simulate job queued by then into one
  :func:`repro.harness.sweep.run_sweep` call.  An idle server starts a
  lone job at once; a burst that arrives while every slot is busy leaves
  as one batch and shares a single process-pool spin-up (and the cache
  pre-pass serves warm tasks without touching the pool at all).  Small
  batches skip the pool and run inline inside a worker thread — where
  per-task deadlines are enforced by the :func:`repro.harness.runner
  .deadline` thread-timer fallback, since SIGALRM is main-thread-only.
  ``sweep`` jobs are grids and already batches by construction; each runs
  as its own ``run_sweep`` invocation in a batch slot of its own.
* **Thread jobs** — ``compile`` and ``explore`` are latency-sensitive and
  pool-incompatible (they return assembly text and Kanata traces, not
  ``SimStats`` payloads), so they run directly on a thread pool under the
  same deadline fallback.

Failures reuse the supervisor's taxonomy: a structured error payload is
classified :data:`~repro.harness.supervisor.TRANSIENT` or
:data:`~repro.harness.supervisor.DETERMINISTIC` by
:func:`~repro.harness.supervisor.classify_failure`; transient failures
retry with the :class:`~repro.harness.supervisor.RetryPolicy` backoff
curve (awaited on the event loop, never blocking it) until the per-task
attempt cap, the sweep-wide retry budget, or the job's own wall-clock
budget runs out.  Deterministic failures fail the job immediately.

Threading contract: all ``Job`` mutation happens on the event loop; the
worker-thread ``run_sweep`` progress callback marshals through
``call_soon_threadsafe``.
"""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from repro.harness.runner import deadline
from repro.harness.supervisor import (
    RetryPolicy,
    TRANSIENT,
    classify_failure,
)
from repro.harness.sweep import SweepTask, compile_binary_cached, run_sweep
from repro.serve.protocol import BadRequest

def _error_record(exc):
    return {"type": type(exc).__name__, "message": str(exc)}


class ServeExecutor:
    """Runs fresh jobs for a :class:`~repro.serve.jobs.JobStore`."""

    #: ``run_sweep`` calls in flight at once: simulate batches and sweep
    #: jobs each hold one of these slots.
    MAX_CONCURRENT_BATCHES = 2
    #: The most simulate jobs one batch takes from the queue.
    BATCH_CAP = 256
    #: Batches at or below this size skip the process pool and run
    #: inline in a worker thread (pool spin-up costs more than the
    #: work; the deadline thread-timer fallback covers enforcement).
    INLINE_THRESHOLD = 2
    #: Worker threads shared by batches and compile/explore jobs.
    THREAD_WORKERS = 4

    def __init__(self, pool_jobs=None, retry_policy=None):
        self.pool_jobs = pool_jobs
        self.retry = retry_policy or RetryPolicy()
        self._retry_budget = self.retry.retry_budget
        self._loop = None
        self._queue = None
        self._dispatcher = None
        self._threads = ThreadPoolExecutor(
            max_workers=self.THREAD_WORKERS, thread_name_prefix="serve-job")
        self._batch_gate = None
        self._tasks = set()
        self.counters = {
            "batches": 0,
            "inline_batches": 0,
            "batched_jobs": 0,
            "thread_jobs": 0,
            "retries": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self, loop=None):
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._batch_gate = asyncio.Semaphore(self.MAX_CONCURRENT_BATCHES)
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        return self

    async def stop(self):
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._threads.shutdown(wait=False)

    def submit(self, job):
        """Hand one *fresh* job to the execution layer (loop thread only)."""
        if job.kind == "simulate":
            self._queue.put_nowait(job)
        elif job.kind == "sweep":
            self._spawn(self._run_sweep_job(job))
        elif job.kind == "compile":
            self._spawn(self._run_thread_job(job, self._compile_sync))
        elif job.kind == "explore":
            self._spawn(self._run_thread_job(job, self._explore_sync))
        else:  # pragma: no cover - the protocol layer rejects unknown kinds
            job.fail("BadRequest", f"unroutable job kind {job.kind!r}")

    def _spawn(self, coro):
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def stats(self):
        return {
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "retry_budget_left": self._retry_budget,
            **self.counters,
        }

    # -- dispatcher ----------------------------------------------------------

    async def _dispatch_loop(self):
        """Start a batch once a job is queued and a batch slot is free.

        The batch takes every simulate job queued by then, up to
        ``BATCH_CAP``, and gives its slot back when ``run_sweep`` returns;
        the dispatcher never waits on a batch itself.
        """
        while True:
            batch = [await self._queue.get()]
            await self._batch_gate.acquire()
            while len(batch) < self.BATCH_CAP and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            self._spawn(self._run_simulate_batch(batch))

    # -- simulate batches ----------------------------------------------------

    def _simulate_task(self, job):
        """The spawn-safe :class:`SweepTask` for one simulate request."""
        from repro import isa as isa_registry
        from repro.core.configs import ALL_CORES

        req = job.request
        config = None
        if req["core"] is not None:
            config = ALL_CORES[req["core"]]()
        target = req["target"]
        if config is not None:
            core_isa = isa_registry.for_config(config).name
            if target is None:
                # The core determines the ISA; compile its default target.
                target = core_isa
            elif isa_registry.resolve_target(target)[0].name != core_isa:
                raise BadRequest(
                    f"target {target!r} is not runnable on core "
                    f"{req['core']!r} (a {core_isa} core)")
        compile_opts = {"target": target or "straight"}
        if req["source"] is not None:
            compile_opts["source_text"] = req["source"]
        return SweepTask(
            job.id,
            workload=req["workload"],
            config=config,
            iterations=req["iterations"],
            max_distance=req["max_distance"],
            compile_opts=compile_opts,
            kind="functional" if config is None else "timing",
            timeout_s=req["timeout_s"],
            attribution=req["attribution"],
            sampling=req["sampling"],
        )

    async def _run_simulate_batch(self, jobs):
        """Run one batch in the slot the dispatcher took for it."""
        try:
            self.counters["batches"] += 1
            self.counters["batched_jobs"] += len(jobs)
            tasks = []
            by_id = {}
            for job in jobs:
                job.mark_running({"batch": len(jobs)})
                try:
                    task = self._simulate_task(job)
                except Exception as exc:  # noqa: BLE001 - fail just this job
                    job.fail(type(exc).__name__, str(exc),
                             {"classification": "deterministic"})
                    continue
                tasks.append(task)
                by_id[job.id] = job
            if not tasks:
                return
            pool_jobs = self.pool_jobs
            if len(tasks) <= self.INLINE_THRESHOLD:
                self.counters["inline_batches"] += 1
                pool_jobs = 1

            loop = self._loop

            def progress(done, total, task_id, status, seconds):
                # Worker-thread callback: marshal onto the loop.
                loop.call_soon_threadsafe(
                    self._on_progress, by_id, done, total, task_id, status,
                    seconds)

            report = await loop.run_in_executor(
                self._threads,
                lambda: run_sweep(tasks, jobs=pool_jobs, progress=progress))
        finally:
            # The next batch may start while this one's results and
            # retries are handled.
            self._batch_gate.release()
        for job in by_id.values():
            payload = report.results.get(job.id)
            if payload is None:  # pragma: no cover - run_sweep is total
                job.fail("ServeError", "sweep returned no payload")
            elif payload.get("kind") == "error":
                await self._maybe_retry(job, payload)
            else:
                job.finish(payload)

    def _on_progress(self, by_id, done, total, task_id, status, seconds):
        job = by_id.get(task_id)
        if job is None:
            return
        if status == "cache":
            job.cache_status = "cache"
        job.publish("progress", {"status": status,
                                 "seconds": round(seconds, 4)})

    async def _maybe_retry(self, job, payload):
        """Requeue a transiently-failed job, or fail it for good."""
        classification = classify_failure(payload)
        budget_left = (time.monotonic() - job.created_s
                       < job.request["timeout_s"])
        if (classification == TRANSIENT
                and job.attempts < self.retry.max_attempts
                and self._retry_budget > 0
                and budget_left):
            self._retry_budget -= 1
            self.counters["retries"] += 1
            backoff = self.retry.backoff_s(job.attempts)
            job.state = "queued"
            job.publish("retry", {
                "attempt": job.attempts,
                "backoff_s": backoff,
                "error": payload.get("type"),
            })
            await asyncio.sleep(backoff)
            if job.kind == "simulate":
                self._queue.put_nowait(job)
            else:
                self._spawn(self._run_sweep_job(job))
            return
        job.fail(payload.get("type", "Error"), payload.get("message", ""),
                 {"classification": classification,
                  "traceback": payload.get("traceback")})

    # -- sweep jobs ----------------------------------------------------------

    async def _run_sweep_job(self, job):
        from repro.harness.experiments import grid_tasks

        req = job.request
        tasks = grid_tasks(req["experiments"])
        job.mark_running({"tasks": len(tasks)})
        if not tasks:
            job.finish({"experiments": req["experiments"], "tasks": 0,
                        "manifest": None})
            return
        loop = self._loop
        stride = max(1, len(tasks) // 20)

        def progress(done, total, task_id, status, seconds):
            if done % stride and done != total:
                return
            loop.call_soon_threadsafe(
                job.publish, "progress",
                {"done": done, "total": total, "status": status})

        async with self._batch_gate:
            report = await loop.run_in_executor(
                self._threads,
                lambda: run_sweep(tasks, jobs=self.pool_jobs,
                                  progress=progress))
        # Partial failure is the sweep contract: the grid completes around
        # failed points and the manifest names them, so the job finishes
        # DONE with the failure list rather than retrying the whole grid.
        result = {
            "experiments": req["experiments"],
            "tasks": len(tasks),
            "completed": len(report.manifest["completed"]),
            "failed": report.manifest["failed"],
            "cache_served": report.manifest["cache_served"],
            "cache_hit_rate": round(report.result_hit_rate(), 4),
            "wall_s": report.wall_s,
        }
        if req["full_results"]:
            result["results"] = report.results
        if report.manifest["cache_served"] == len(tasks):
            job.cache_status = "cache"
        job.finish(result)

    # -- thread jobs (compile / explore) -------------------------------------

    async def _run_thread_job(self, job, fn):
        self.counters["thread_jobs"] += 1
        job.mark_running()
        loop = self._loop
        while True:
            try:
                result = await loop.run_in_executor(
                    self._threads, fn, job.request, job.id)
            except Exception as exc:  # noqa: BLE001 - classify and retry
                payload = _error_record(exc)
                classification = classify_failure(payload)
                budget_left = (time.monotonic() - job.created_s
                               < job.request["timeout_s"])
                if (classification == TRANSIENT
                        and job.attempts < self.retry.max_attempts
                        and self._retry_budget > 0
                        and budget_left):
                    self._retry_budget -= 1
                    self.counters["retries"] += 1
                    backoff = self.retry.backoff_s(job.attempts)
                    job.publish("retry", {"attempt": job.attempts,
                                          "backoff_s": backoff,
                                          "error": payload["type"]})
                    await asyncio.sleep(backoff)
                    job.attempts += 1
                    continue
                job.fail(payload["type"], payload["message"],
                         {"classification": classification})
                return
            else:
                job.finish(result)
                return

    @staticmethod
    def _compile_sync(request, job_id):
        """Compile one source (artifact-cached) and report asm + diagnostics.

        Runs in a worker thread: the deadline auto-selects the thread-timer
        fallback.
        """
        with deadline(request["timeout_s"], label=job_id):
            binary = compile_binary_cached(
                request["source"], target=request["target"],
                max_distance=request["max_distance"])
            result = {
                "target": request["target"],
                "isa": binary.isa,
                "asm": binary.compilation.asm_text(),
            }
            if request["verify"]:
                result["diagnostics"] = _diagnostics(
                    binary.descriptor, binary.program)
            return result

    @staticmethod
    def _explore_sync(request, job_id):
        """The compiler-explorer job: every ISA's pipeline for one source.

        Per ISA: the assembly of every linked variant, the static
        verifier's diagnostics, the functional output — plus (``trace``) a
        Kanata pipeline log and cycles/IPC from the ISA's 2-way core, and
        (``sampled``) a SMARTS-style sampled timing estimate.
        """
        from repro import isa as isa_registry
        from repro.core.api import Binary, simulate
        from repro.frontend import compile_source

        with deadline(request["timeout_s"], label=job_id):
            module = compile_source(request["source"])
            isas = {}
            for name in request["isas"]:
                descriptor = isa_registry.get(name)
                variants = {}
                default_binary = None
                for label, opts in descriptor.binary_labels.items():
                    compilation = descriptor.compile_module(
                        module, max_distance=request["max_distance"], **opts)
                    program = compilation.link()
                    report = descriptor.static_check(program)
                    interp = descriptor.make_interpreter(program)
                    run = interp.run(1_000_000)
                    variants[label] = {
                        "asm": compilation.asm_text(),
                        "diagnostics": _report_view(report),
                        "output": list(run.output),
                        "steps": run.steps,
                        "status": run.status,
                    }
                    if default_binary is None:
                        default_binary = Binary(descriptor.name, program,
                                                compilation)
                entry = {
                    "display_name": descriptor.display_name,
                    "default_variant": next(iter(descriptor.binary_labels)),
                    "variants": variants,
                }
                config = descriptor.config_factories["2way"]()
                if request["trace"]:
                    from repro.obs import ObserverBus
                    from repro.obs.kanata import KanataWriter

                    writer = KanataWriter(path=None,
                                          max_insns=request["max_insns"])
                    result = simulate(default_binary, config,
                                      warm_caches=True,
                                      observer=ObserverBus([writer]))
                    entry["timing"] = {
                        "core": config.name,
                        "cycles": result.cycles,
                        "ipc": round(result.ipc, 4),
                        "kanata": writer.render(),
                    }
                if request["sampled"]:
                    from repro.harness.sampling import (
                        SamplingParams,
                        simulate_sampled,
                    )

                    sampled = simulate_sampled(default_binary, config,
                                               SamplingParams(),
                                               warm_caches=True)
                    entry["sampled"] = {
                        "core": config.name,
                        "cycles": sampled.cycles,
                        "ipc": round(sampled.ipc, 4),
                    }
                isas[name] = entry
            return {"isas": isas}


def _diagnostics(descriptor, program):
    """Static-verifier diagnostics for one linked program, or ``None``."""
    return _report_view(descriptor.static_check(program))


def _report_view(report):
    if report is None:
        return None
    view = {"summary": report.summary(), "ok": not report.has_errors()}
    as_dict = getattr(report, "as_dict", None)
    if as_dict is not None:
        view["report"] = as_dict()
    return view
