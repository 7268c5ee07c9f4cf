"""The serve workload: an open loop against a fresh ``straight serve``.

This process is the one client.  It sends a seeded request mix at one
fixed rate, over two keep-alive connections (one sends, one polls), to a
``straight serve`` child process started on a fresh cache directory:

* unique simulate requests: ``loadgen.phase_source`` programs with seeded
  salts on a seeded 2-way core.  Each compiles, runs a timing simulation of
  about 100 instructions and writes the result and artifact caches;
* repeated simulate requests over a few keys: single-flight dedup, the job
  store and result-cache reads;
* a small share of compile and explore requests.

Requests are submitted without ``wait`` and polled to their result, so a
slow server never holds the schedule back; a request's latency runs from
its scheduled send time to the poll that sees its result.  The rate is
half the capacity ``calibrate_serve.py`` measures for this mix.  A failed
check, a 4xx/5xx response or a job still unfinished ``GRACE_S`` after the
last send counts as failed.  The traced run hosts the server in this process
(``ServerHandle``) so the tracer can wrap its layers; work done in sweep
pool workers stays untraced.
"""

import asyncio
import contextlib
import os
import queue
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque

import repro.core.api as api
from repro import isa as isa_registry
from repro.harness import cache as cache_mod
from repro.harness.sweep import compile_binary_cached
from repro.serve.loadgen import HttpClient, phase_source
from repro.serve.server import ServerHandle

import common
import layers
from spans import Tracer

#: Offered load in requests per second: half of this mix's capacity, 40
#: requests a second on a shared 2-vCPU host (calibrate_serve.py: at 45/s
#: the generator falls over 5 ms behind at p99, at 60/s the median latency
#: jumps from 38 ms to 370 ms).
RATE_PER_S = 20.0
#: Each kind's share of the requests; the seed only orders them.
MIX = (("unique", 0.50), ("repeated", 0.40), ("compile", 0.05),
       ("explore", 0.05))
SIMULATE = ("unique", "repeated")
#: The repeated keys' programs loop 8 + residue times (phase_source), so
#: each seed's keys do the same work: 9, 11, 12 and 14 iterations, on the
#: ISAs in turn.
KEY_RESIDUES = (1, 3, 4, 6)
#: Pending jobs are polled this often, on the connection the sends do not
#: use.  A result is seen at most this long plus one poll round trip per
#: pending job after it is ready: 1 to 2 ms at the offered rate.
POLL_S = 0.001
#: How long after the last scheduled send a job may still finish.
GRACE_S = 5.0
SETUP_REPEATS = 3
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
CLIENT_ID = "perfbench"
#: The client's quota, far above the capacity: a 429 means overload.
QUOTA_RATE = 1000.0
QUOTA_BURST = 1000.0
TERMINAL = ("done", "failed")


def expected_output(index):
    """What ``phase_source(index)`` prints: ``salt * (0 + 1 + ... + iters-1)``."""
    iters = 8 + index % 8
    return [(index + 1) * iters * (iters - 1) // 2]


class Request:
    __slots__ = ("at", "kind", "path", "body", "expected")

    def __init__(self, at, kind, index, isa):
        self.at = at
        self.kind = kind
        source = phase_source(index)
        if kind == "compile":
            self.body = {"source": source, "target": isa}
        elif kind == "explore":
            self.body = {"source": source, "isas": [isa]}
        else:
            core = isa_registry.get(isa).config_factories["2way"]().name
            self.body = {"source": source, "core": core}
        self.path = "/v1/simulate" if kind in SIMULATE else f"/v1/{kind}"
        self.expected = expected_output(index)


def plan(seed, seconds, rate=RATE_PER_S):
    """The seeded schedule at ``rate`` requests a second: ``(requests,
    repeated keys)``.

    The seed picks every program salt and the order of the kinds; each
    kind takes the ISAs in turn, so every seed asks for the same work (an
    explore of STRAIGHT's variants costs more than one of bb's, and the
    tail is mostly explores).  Salt indices start at 1000, clear of the
    warm-up programs; the keys' lie above the unique requests'.
    """
    rng = random.Random(seed)
    total = max(1, round(seconds * rate))
    kinds = [kind for kind, share in MIX for _ in range(round(total * share))]
    kinds = (kinds + ["unique"] * total)[:total]
    rng.shuffle(kinds)
    isas = isa_registry.names()
    indices = rng.sample(range(1000, 500_000), total)
    keys = [(8 * rng.randrange(62_500, 125_000) + residue,
             isas[number % len(isas)])
            for number, residue in enumerate(KEY_RESIDUES)]
    requests = []
    turns = dict.fromkeys(kinds, 0)
    for number, kind in enumerate(kinds):
        if kind == "repeated":
            index, isa = rng.choice(keys)
        else:
            index, isa = indices.pop(), isas[turns[kind] % len(isas)]
            turns[kind] += 1
        requests.append(Request(number / rate, kind, index, isa))
    return requests, keys


def warm_up_requests():
    """One request of each kind per ISA, on programs the schedule never uses."""
    return [Request(0.0, kind, number, isa)
            for number, (kind, isa) in enumerate(
                (kind, isa) for kind in ("unique", "compile", "explore")
                for isa in isa_registry.names())]


def check_keys(keys):
    """Each repeated key's program, run functionally, prints its expected output."""
    for index, isa in keys:
        binary = compile_binary_cached(phase_source(index), target=isa)
        output = api.run_functional(binary).output
        if output != expected_output(index):
            raise RuntimeError(f"phase_source({index}) on {isa} printed "
                               f"{output}, expected {expected_output(index)}")


def problem_of(request, view):
    """``(problem, wrong output)`` of one finished job; no problem: ``None``."""
    if view.get("state") != "done":
        return f"job {view.get('state')}: {view.get('error')}", False
    result = view.get("result") or {}
    if request.kind == "compile":
        diagnostics = result.get("diagnostics")
        if result.get("asm") and (diagnostics is None or diagnostics.get("ok")):
            return None, False
        return "no assembly, or failing verifier diagnostics", True
    if request.kind == "explore":
        outputs = [variant.get("output")
                   for entry in result.get("isas", {}).values()
                   for variant in entry.get("variants", {}).values()]
    else:
        outputs = [result.get("output")]
    if outputs and all(output == request.expected for output in outputs):
        return None, False
    return f"outputs {outputs} != expected {request.expected}", True


class Record:
    """One request answered correctly."""

    __slots__ = ("kind", "served", "latency_ms", "wall_ms", "instructions",
                 "saved")

    def __init__(self, request, served, latency_ms, view):
        self.kind = request.kind
        self.served = served
        self.latency_ms = latency_ms
        self.wall_ms = view.get("wall_ms")
        self.instructions = (view["result"]["stats"]["instructions"]
                             if request.kind in SIMULATE else 0)
        #: Answered without a fresh execution.
        self.saved = (served in ("inflight", "store")
                      or view.get("cache") == "cache")


class Outcome:
    """What one open-loop run saw."""

    def __init__(self):
        self.records = []
        self.late_ms = []
        #: From the first scheduled send to the last result seen.
        self.seconds = 0.0

    def latencies_ms(self):
        return [record.latency_ms for record in self.records]

    def sim_kips(self):
        """Simulated instructions answered per second of the run.

        In an open loop this is the offered work, less what failed or came
        late.  The server's own execution speed shows in the latencies: its
        job wall times swing with the shared host's speed by about 20%
        between runs.
        """
        instructions = sum(record.instructions for record in self.records)
        return instructions / self.seconds / 1e3 if self.seconds else 0.0


async def drive(host, port, requests, tally):
    """Send ``requests`` on schedule and poll each to its result."""
    loop = asyncio.get_running_loop()
    client = HttpClient(host, port, pool_size=1)
    poller = HttpClient(host, port, pool_size=1)
    headers = {"X-Client-Id": CLIENT_ID}
    outcome = Outcome()
    #: job id -> [(request, due, served), ...]: dedup attaches share a job.
    pending = {}
    start = loop.time() + 0.05
    deadline = start + requests[-1].at + GRACE_S
    sending = True

    def finish(request, due, served, view):
        problem, wrong = problem_of(request, view)
        tally.record(request.kind, [problem] if problem else [], wrong)
        if problem is None:
            outcome.records.append(Record(request, served,
                                          (loop.time() - due) * 1e3, view))
            outcome.seconds = loop.time() - start

    async def poll():
        while (sending or pending) and loop.time() < deadline:
            for job_id in list(pending):
                try:
                    status, view = await poller.get_json(f"/v1/jobs/{job_id}")
                except (OSError, asyncio.IncompleteReadError, ValueError):
                    continue
                if status == 200 and view.get("state") in TERMINAL:
                    for waiter in pending.pop(job_id):
                        finish(*waiter, view)
            await asyncio.sleep(POLL_S)

    polling = loop.create_task(poll())
    try:
        for request in requests:
            due = start + request.at
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome.late_ms.append((loop.time() - due) * 1e3)
            try:
                status, view = await client.post_json(
                    request.path, request.body, headers=headers)
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                tally.record(request.kind, [f"{type(exc).__name__}: {exc}"])
                continue
            if status not in (200, 202):
                tally.record(request.kind,
                             [f"HTTP {status}: {view.get('error')}"])
            elif view.get("state") in TERMINAL:
                finish(request, due, view.get("served"), view)
            else:
                pending.setdefault(view["job"], []).append(
                    (request, due, view.get("served")))
        sending = False
        await polling
    finally:
        if not polling.done():
            polling.cancel()
            try:
                await polling
            except asyncio.CancelledError:
                pass
        client.close()
        poller.close()
    for waiters in pending.values():
        for request, _due, _served in waiters:
            tally.record(request.kind, ["unfinished when the run ended"])
    return outcome


async def warm_up(host, port):
    """Run every request kind on every ISA once, so the measured requests
    find the server's lazy imports done."""
    client = HttpClient(host, port, pool_size=1)
    try:
        for request in warm_up_requests():
            status, view = await client.post_json(
                f"{request.path}?wait=60", request.body,
                headers={"X-Client-Id": CLIENT_ID})
            problem = (f"HTTP {status}" if status != 200
                       else problem_of(request, view)[0])
            if problem:
                raise RuntimeError(f"warm-up {request.kind} failed: {problem}")
    finally:
        client.close()


class ServerProcess:
    """A ``straight serve`` child process on a fresh cache directory."""

    def __init__(self, workdir):
        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=workdir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (common.SRC, env.get("PYTHONPATH")) if path)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "serve", "--port", "0",
             "--cache-dir", self.cache_dir,
             "--quota-rate", str(QUOTA_RATE), "--quota-burst", str(QUOTA_BURST)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        self.stderr = deque(maxlen=50)
        self._ports = queue.Queue()
        # Read stderr until the server exits: the announce line carries the
        # port, and a chatty server must never block on a full pipe.
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        try:
            self.port = self._ports.get(timeout=START_TIMEOUT_S)
        except queue.Empty:
            self.port = None
        if self.port is None:
            self.stop()
            raise RuntimeError("straight serve did not start: "
                               + "".join(self.stderr)[-2000:])

    def _read_stderr(self):
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", "replace")
            self.stderr.append(line)
            match = re.search(r"serving on http://[\d.]+:(\d+)", line)
            if match:
                self._ports.put(int(match.group(1)))
        self._ports.put(None)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=STOP_TIMEOUT_S)
        self.proc.stderr.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def start_server(keys, workdir):
    """One set-up: check the expected outputs, start a server, warm it up."""
    check_keys(keys)
    server = ServerProcess(workdir)
    try:
        asyncio.run(warm_up("127.0.0.1", server.port))
    except BaseException:
        server.stop()
        raise
    return server


def open_loop(seed, seconds, workdir, rate=RATE_PER_S,
              setup_repeats=SETUP_REPEATS):
    """Start a fresh server ``setup_repeats`` times, then drive the last
    one: ``(requests, tally, outcome, set-up seconds)``."""
    requests, keys = plan(seed, seconds, rate)
    tally = common.Tally()
    setups = []
    server = None
    try:
        for _ in range(setup_repeats):
            if server is not None:
                server.stop()
                server = None
            began = time.perf_counter()
            server = start_server(keys, workdir)
            setups.append(time.perf_counter() - began)
        outcome = asyncio.run(drive("127.0.0.1", server.port, requests, tally))
    finally:
        if server is not None:
            server.stop()
    return requests, tally, outcome, setups


def run(workload, seed, seconds, traced, workdir):
    """One run of ``serve_mix``: ``(tally, metric values)``."""
    if traced:
        requests, keys = plan(seed, seconds)
        tally = common.Tally()
        return tally, run_traced(requests, keys, seed, workdir, tally)
    requests, tally, outcome, setups = open_loop(seed, seconds, workdir)
    latencies = outcome.latencies_ms()
    tail_ms, tail_pct, samples = common.tail(latencies)
    common.log(f"serve_mix seed {seed}: {samples} of {len(requests)} requests "
               f"answered; tail p{tail_pct:.1f}; sends late by "
               f"{common.percentile(outcome.late_ms, 0.99):.2f} ms at p99; "
               f"set-ups {[round(s, 2) for s in setups]} s")
    return tally, {
        "setup_s": statistics.median(setups),
        "sim_kips": outcome.sim_kips(),
        # The largest finished child: the server that carried the load.
        "peak_rss_mb": common.peak_rss_mb(resource.RUSAGE_CHILDREN),
        "latency_p50_ms": common.median(latencies),
        "latency_tail_ms": tail_ms,
    }


def server_counters(stats):
    """The cumulative server counters the per-layer metrics report."""
    executor, cache = stats["executor"], stats["cache"]
    return {
        "cache.result_hits": cache["results"]["hits"],
        "cache.result_misses": cache["results"]["misses"],
        "cache.result_stores": cache["results"]["stores"],
        "cache.artifact_hits": cache["artifacts"]["hits"],
        "cache.artifact_misses": cache["artifacts"]["misses"],
        "sweep.batches": executor["batches"],
        "sweep.inline_batches": executor["inline_batches"],
        "sweep.batched_jobs": executor["batched_jobs"],
        "serve.retries": executor["retries"],
        "serve.rejected": stats["quota"]["rejections"],
    }


def hosted(requests, workdir, tally, tracer=None):
    """Serve ``requests`` from a warmed-up in-process server on a fresh
    cache, traced when ``tracer`` is given; returns the outcome and the
    server counters the requests moved."""
    cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=workdir)
    previous = cache_mod.swap_state()
    cache_mod.configure(cache_dir, enabled=True)
    try:
        with ServerHandle(port=0, quota_rate=QUOTA_RATE,
                          quota_burst=QUOTA_BURST) as handle:
            asyncio.run(warm_up(handle.host, handle.port))
            before = server_counters(handle.app.stats())
            with (layers.installed(tracer) if tracer is not None
                  else contextlib.nullcontext()):
                outcome = asyncio.run(
                    drive(handle.host, handle.port, requests, tally))
            after = server_counters(handle.app.stats())
    finally:
        cache_mod.swap_state(previous)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return outcome, {name: after[name] - before[name] for name in after}


def run_traced(requests, keys, seed, workdir, tally):
    """Per-layer metrics: the schedule against an in-process server,
    untraced and then traced."""
    tracer = Tracer()
    with layers.installed(tracer):
        with tracer.span("setup"):
            check_keys(keys)
    plain, _counters = hosted(requests, workdir, tally)
    timed, counters = hosted(requests, workdir, tally, tracer)
    values = dict.fromkeys(common.PER_LAYER, 0)
    values.update(layers.layer_metrics(tracer))
    values.update(counters)
    lookups = counters["cache.result_hits"] + counters["cache.result_misses"]
    fresh = [record for record in timed.records
             if record.served == "fresh" and record.wall_ms is not None]
    _tail, tail_pct, samples = common.tail(plain.latencies_ms())
    values.update({
        "cache.hit_ratio": (counters["cache.result_hits"] / lookups
                            if lookups else 0.0),
        "serve.exec_ms": common.median(record.wall_ms for record in fresh),
        "serve.wait_ms": common.median(record.latency_ms - record.wall_ms
                                       for record in fresh),
        "serve.dedup_ratio": (sum(record.saved for record in timed.records)
                              / len(requests)),
        "loadgen.late_p99_ms": common.percentile(timed.late_ms, 0.99),
        "latency.tail_pct": tail_pct,
        "latency.samples": samples,
        "failed_ratio": tally.failed_ratio,
        # An open loop's wall time is its schedule; compare mean latency.
        "trace.overhead_pct": (statistics.fmean(timed.latencies_ms())
                               / statistics.fmean(plain.latencies_ms())
                               - 1) * 100,
        "trace.unattributed_pct": layers.unattributed_pct(tracer, "sweep.run"),
    })
    tracer.dump(os.path.join(workdir, f"spans-serve_mix-seed{seed}.json"),
                {"metrics": values})
    return values
