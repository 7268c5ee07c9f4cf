"""Tests for the ``repro.serve`` subsystem (PR 10).

Covers the protocol layer (canonicalization identity, SSE framing
round-trip), quotas (deterministic fake clock), the job store's
single-flight contract, subscriber streaming (two subscribers, ordered;
disconnect mid-stream), the executor's in-flight dedup (two concurrent
identical jobs -> one pool task, via a monkeypatched sweep engine), the
dispatcher's batching policy (a lone job starts at once; jobs queued
behind busy batch slots leave as one batch), the HTTP server end to end
over a real socket (including the compiler explorer for every registered
ISA), and the thread-safety of the cache configuration singleton
(satellite a).
"""

import asyncio
import threading
import time

import pytest

from repro.harness import cache as cache_mod
from repro.serve import executor as executor_mod
from repro.serve.jobs import Job, JobStore
from repro.serve.protocol import (
    BadRequest,
    canonical_request,
    parse_sse,
    sse_event,
)
from repro.serve.quota import QuotaRegistry, TokenBucket

SRC = "int main() { __out(40 + 2); return 0; }"
SRC_LOOP = """
int main() {
    int acc = 0;
    for (int i = 0; i < 10; ++i) acc += i;
    __out(acc);
    return 0;
}
"""


# ---------------------------------------------------------------------------
# Protocol: canonicalization
# ---------------------------------------------------------------------------


class TestCanonicalRequest:
    def test_key_stable_under_field_order_and_defaults(self):
        _r1, k1 = canonical_request("simulate", {"source": SRC})
        _r2, k2 = canonical_request(
            "simulate", {"max_distance": 1023, "source": SRC,
                         "attribution": False})
        assert k1 == k2

    def test_timeout_excluded_from_identity(self):
        r1, k1 = canonical_request("simulate", {"source": SRC})
        r2, k2 = canonical_request("simulate", {"source": SRC,
                                                "timeout_s": 7})
        assert k1 == k2
        assert r1["timeout_s"] != r2["timeout_s"] == 7.0

    def test_different_source_different_key(self):
        _r1, k1 = canonical_request("simulate", {"source": SRC})
        _r2, k2 = canonical_request("simulate", {"source": SRC_LOOP})
        assert k1 != k2

    def test_sweep_experiments_order_insensitive(self):
        from repro.harness.experiments import ALL_EXPERIMENTS

        names = sorted(ALL_EXPERIMENTS)[:2]
        _r1, k1 = canonical_request("sweep", {"experiments": names})
        _r2, k2 = canonical_request("sweep",
                                    {"experiments": list(reversed(names))})
        assert k1 == k2

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequest, match="unknown simulate field"):
            canonical_request("simulate", {"source": SRC, "bogus": 1})

    def test_unknown_core_rejected(self):
        with pytest.raises(BadRequest, match="unknown core"):
            canonical_request("simulate", {"source": SRC,
                                           "core": "Pentium-III"})

    def test_source_xor_workload(self):
        with pytest.raises(BadRequest, match="exactly one"):
            canonical_request("simulate", {"source": SRC,
                                           "workload": "dhrystone"})
        with pytest.raises(BadRequest, match="exactly one"):
            canonical_request("simulate", {})

    def test_attribution_and_sampling_conflict(self):
        with pytest.raises(BadRequest, match="cannot be combined"):
            canonical_request("simulate", {
                "source": SRC, "core": "STRAIGHT-2way",
                "attribution": True, "sampling": {"period": 8000},
            })

    def test_inconsistent_sampling_schedule_is_bad_request(self):
        with pytest.raises(BadRequest, match="sampling"):
            canonical_request("simulate", {
                "source": SRC, "core": "STRAIGHT-2way",
                "sampling": {"period": 10, "window": 100},
            })

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadRequest, match="unknown job kind"):
            canonical_request("fuzz", {})


# ---------------------------------------------------------------------------
# Protocol: SSE framing
# ---------------------------------------------------------------------------


class TestSseFraming:
    def test_round_trip_json_payload(self):
        frame = sse_event({"b": 2, "a": 1}, event="progress", id=3)
        events = parse_sse(frame)
        assert events == [{"id": "3", "event": "progress",
                           "data": '{"a":1,"b":2}'}]

    def test_multi_line_data_round_trips(self):
        frame = sse_event("line one\nline two\n\nline four", event="asm")
        (event,) = parse_sse(frame)
        assert event["data"] == "line one\nline two\n\nline four"

    def test_stream_of_frames_stays_ordered(self):
        blob = b"".join(sse_event({"i": i}, event="e", id=i)
                        for i in range(5))
        events = parse_sse(blob)
        assert [e["id"] for e in events] == ["0", "1", "2", "3", "4"]

    def test_comment_keepalives_skipped(self):
        text = ": keep-alive\n\n" + sse_event("x", event="e").decode()
        events = parse_sse(text)
        assert len(events) == 1 and events[0]["data"] == "x"


# ---------------------------------------------------------------------------
# Quotas
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        assert bucket.retry_after_s() == pytest.approx(1.0)
        now[0] += 1.0
        assert bucket.try_take()
        assert bucket.rejections == 1 and bucket.granted == 3

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=lambda: now[0])
        now[0] += 60.0
        for _ in range(3):
            assert bucket.try_take()
        assert not bucket.try_take()

    def test_registry_lru_bound(self):
        registry = QuotaRegistry(rate=1.0, burst=1.0, max_clients=2,
                                 clock=lambda: 0.0)
        for client in ("a", "b", "c"):
            registry.try_take(client)
        assert registry.stats()["clients"] == 2

    def test_disabled_registry_grants_everything(self):
        registry = QuotaRegistry(rate=None)
        for _ in range(1000):
            granted, retry_after = registry.try_take("anyone")
            assert granted and retry_after == 0.0

    def test_rejections_counted_with_retry_after(self):
        registry = QuotaRegistry(rate=1.0, burst=1.0, clock=lambda: 0.0)
        assert registry.try_take("c")[0]
        granted, retry_after = registry.try_take("c")
        assert not granted and retry_after > 0
        assert registry.stats()["rejections"] == 1


# ---------------------------------------------------------------------------
# Job store: single-flight contract + streaming
# ---------------------------------------------------------------------------


class TestJobStore:
    def test_single_flight_and_store_serving(self):
        async def scenario():
            store = JobStore()
            job1, created1, served1 = store.submit("simulate",
                                                   {"source": SRC})
            assert created1 and served1 == "fresh"
            job2, created2, served2 = store.submit("simulate",
                                                   {"source": SRC})
            assert job2 is job1 and not created2 and served2 == "inflight"
            job1.mark_running()
            job1.finish({"ok": True})
            job3, created3, served3 = store.submit("simulate",
                                                   {"source": SRC})
            assert job3 is job1 and not created3 and served3 == "store"
            assert store.counters["dedup_inflight"] == 1
            assert store.counters["dedup_store"] == 1

        asyncio.run(scenario())

    def test_failed_jobs_are_not_dedup_targets(self):
        async def scenario():
            store = JobStore()
            job1, _created, _served = store.submit("simulate",
                                                   {"source": SRC})
            job1.mark_running()
            job1.fail("SimulationError", "boom")
            job2, created2, served2 = store.submit("simulate",
                                                   {"source": SRC})
            assert job2 is not job1 and created2 and served2 == "fresh"

        asyncio.run(scenario())

    def test_eviction_keeps_live_jobs(self):
        async def scenario():
            store = JobStore(max_jobs=2)
            done1, _c, _s = store.submit("simulate", {"source": SRC})
            done1.mark_running()
            done1.finish({})
            live, _c, _s = store.submit("simulate", {"source": SRC_LOOP})
            third, _c, _s = store.submit("compile", {"source": SRC})
            assert done1.id not in store.jobs      # oldest terminal evicted
            assert live.id in store.jobs           # queued: never evicted
            assert third.id in store.jobs
            assert store.by_key.get(done1.key) is None

        asyncio.run(scenario())

    def test_two_subscribers_get_identical_ordered_streams(self):
        async def scenario():
            job = Job("j1", "simulate", "k" * 64, {})

            async def consume():
                return [(r["index"], r["event"]) async for r in job.stream()]

            first = asyncio.ensure_future(consume())
            second = asyncio.ensure_future(consume())
            await asyncio.sleep(0)
            job.mark_running()
            await asyncio.sleep(0)
            job.publish("progress", {"step": 1})
            job.finish({"ok": True})
            streams = await asyncio.gather(first, second)
            assert streams[0] == streams[1]
            assert [e for _i, e in streams[0]] == [
                "queued", "started", "progress", "done"]
            assert [i for i, _e in streams[0]] == [0, 1, 2, 3]

        asyncio.run(scenario())

    def test_late_subscriber_replays_full_history(self):
        async def scenario():
            job = Job("j1", "simulate", "k" * 64, {})
            job.mark_running()
            job.publish("progress", {"step": 1})
            job.finish({"ok": True})
            events = [r["event"] async for r in job.stream()]
            assert events == ["queued", "started", "progress", "done"]

        asyncio.run(scenario())

    def test_disconnect_mid_stream_does_not_wedge_the_job(self):
        async def scenario():
            job = Job("j1", "simulate", "k" * 64, {})
            received = []

            async def flaky_consumer():
                async for record in job.stream():
                    received.append(record["event"])

            consumer = asyncio.ensure_future(flaky_consumer())
            await asyncio.sleep(0)
            consumer.cancel()          # client disconnected mid-stream
            try:
                await consumer
            except asyncio.CancelledError:
                pass
            job.mark_running()
            job.finish({"ok": True})   # must not block or raise
            assert await job.wait(1.0)
            # A fresh subscriber still sees the complete ordered history.
            events = [r["event"] async for r in job.stream()]
            assert events == ["queued", "started", "done"]

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Executor: in-flight dedup -> one pool task
# ---------------------------------------------------------------------------


class _FakeReport:
    def __init__(self, results):
        self.results = results
        self.manifest = {"failed": [], "completed": list(results),
                         "cache_served": 0}


class TestExecutorDedup:
    def test_two_concurrent_identical_jobs_one_execution(self, monkeypatch):
        calls = []

        def fake_run_sweep(tasks, jobs=None, progress=None, **_kw):
            calls.append([t.task_id for t in tasks])
            results = {}
            for index, task in enumerate(tasks, 1):
                progress(index, len(tasks), task.task_id, "run", 0.001)
                results[task.task_id] = {"kind": "functional",
                                         "output": [42]}
            return _FakeReport(results)

        monkeypatch.setattr(executor_mod, "run_sweep", fake_run_sweep)

        async def scenario():
            store = JobStore()
            executor = executor_mod.ServeExecutor().start(
                asyncio.get_running_loop())
            try:
                job1, created1, served1 = store.submit("simulate",
                                                       {"source": SRC})
                assert created1 and served1 == "fresh"
                executor.submit(job1)
                # Second identical request lands while the first is queued:
                # single-flight attaches it, nothing new reaches the pool.
                job2, created2, served2 = store.submit("simulate",
                                                       {"source": SRC})
                assert job2 is job1 and not created2
                assert served2 == "inflight"
                assert await job1.wait(5.0)
                assert job1.result == {"kind": "functional", "output": [42]}
            finally:
                await executor.stop()

        asyncio.run(scenario())
        assert len(calls) == 1, "dedup'd job must not re-reach the pool"
        assert len(calls[0]) == 1

    def test_distinct_jobs_share_one_batch(self, monkeypatch):
        calls = []

        def fake_run_sweep(tasks, jobs=None, progress=None, **_kw):
            calls.append([t.task_id for t in tasks])
            return _FakeReport({t.task_id: {"kind": "functional",
                                            "output": []} for t in tasks})

        monkeypatch.setattr(executor_mod, "run_sweep", fake_run_sweep)

        async def scenario():
            store = JobStore()
            executor = executor_mod.ServeExecutor().start(
                asyncio.get_running_loop())
            try:
                jobs = []
                for source in (SRC, SRC_LOOP):
                    job, created, _served = store.submit("simulate",
                                                         {"source": source})
                    assert created
                    executor.submit(job)
                    jobs.append(job)
                for job in jobs:
                    assert await job.wait(5.0)
            finally:
                await executor.stop()

        asyncio.run(scenario())
        assert len(calls) == 1, "jobs queued before dispatch share a batch"
        assert len(calls[0]) == 2

    def test_transient_failure_retries_then_succeeds(self, monkeypatch):
        from repro.harness.supervisor import RetryPolicy

        attempts = []

        def fake_run_sweep(tasks, jobs=None, progress=None, **_kw):
            attempts.append(len(tasks))
            if len(attempts) == 1:
                return _FakeReport({t.task_id: {
                    "kind": "error", "type": "OSError",
                    "message": "fork hiccup"} for t in tasks})
            return _FakeReport({t.task_id: {"kind": "functional",
                                            "output": [1]} for t in tasks})

        monkeypatch.setattr(executor_mod, "run_sweep", fake_run_sweep)

        async def scenario():
            store = JobStore()
            executor = executor_mod.ServeExecutor(
                retry_policy=RetryPolicy(backoff_base_s=0.001),
            ).start(asyncio.get_running_loop())
            try:
                job, _created, _served = store.submit("simulate",
                                                      {"source": SRC})
                executor.submit(job)
                assert await job.wait(5.0)
                assert job.state == "done"
                assert job.attempts == 2
                events = [e["event"] for e in job.events]
                assert "retry" in events
            finally:
                await executor.stop()

        asyncio.run(scenario())
        assert attempts == [1, 1]

    def test_deterministic_failure_fails_immediately(self, monkeypatch):
        def fake_run_sweep(tasks, jobs=None, progress=None, **_kw):
            return _FakeReport({t.task_id: {
                "kind": "error", "type": "SimulationError",
                "message": "bad program"} for t in tasks})

        monkeypatch.setattr(executor_mod, "run_sweep", fake_run_sweep)

        async def scenario():
            store = JobStore()
            executor = executor_mod.ServeExecutor().start(
                asyncio.get_running_loop())
            try:
                job, _created, _served = store.submit("simulate",
                                                      {"source": SRC})
                executor.submit(job)
                assert await job.wait(5.0)
                assert job.state == "failed"
                assert job.attempts == 1
                assert job.error["classification"] == "deterministic"
            finally:
                await executor.stop()

        asyncio.run(scenario())

    def test_core_target_isa_mismatch_fails_cleanly(self, monkeypatch):
        def fake_run_sweep(tasks, jobs=None, progress=None, **_kw):
            raise AssertionError("must not reach the pool")

        monkeypatch.setattr(executor_mod, "run_sweep", fake_run_sweep)

        async def scenario():
            store = JobStore()
            executor = executor_mod.ServeExecutor().start(
                asyncio.get_running_loop())
            try:
                job, _created, _served = store.submit("simulate", {
                    "source": SRC, "core": "SS-2way", "target": "straight"})
                executor.submit(job)
                assert await job.wait(5.0)
                assert job.state == "failed"
                assert "not runnable" in job.error["message"]
            finally:
                await executor.stop()

        asyncio.run(scenario())


def _fake_results(tasks):
    return _FakeReport({t.task_id: {"kind": "functional", "output": []}
                        for t in tasks})


def _numbered_source(index):
    return f"int main() {{ __out({index}); return 0; }}"


async def _until(predicate, timeout_s=5.0):
    horizon = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < horizon, "condition never held"
        await asyncio.sleep(0.001)


class TestDispatchPolicy:
    def test_lone_jobs_do_not_wait(self, monkeypatch):
        sizes = []

        def fake_run_sweep(tasks, jobs=None, progress=None, **_kw):
            sizes.append(len(tasks))
            return _fake_results(tasks)

        monkeypatch.setattr(executor_mod, "run_sweep", fake_run_sweep)

        async def scenario():
            store = JobStore()
            executor = executor_mod.ServeExecutor().start(
                asyncio.get_running_loop())
            try:
                started = time.perf_counter()
                for index in range(20):
                    job, created, _served = store.submit(
                        "simulate", {"source": _numbered_source(index)})
                    assert created
                    executor.submit(job)
                    assert await job.wait(5.0)
                    assert job.state == "done"
                return time.perf_counter() - started
            finally:
                await executor.stop()

        elapsed = asyncio.run(scenario())
        assert sizes == [1] * 20
        assert elapsed < 0.2, f"20 lone jobs took {elapsed:.3f} s"

    def test_jobs_queued_behind_busy_slots_leave_as_one_batch(
            self, monkeypatch):
        sizes = []
        release = threading.Event()

        def fake_run_sweep(tasks, jobs=None, progress=None, **_kw):
            sizes.append(len(tasks))
            if len(sizes) <= 2:
                release.wait(5.0)
            return _fake_results(tasks)

        monkeypatch.setattr(executor_mod, "run_sweep", fake_run_sweep)

        async def scenario():
            store = JobStore()
            executor = executor_mod.ServeExecutor().start(
                asyncio.get_running_loop())
            jobs = []

            def submit(index):
                job, created, _served = store.submit(
                    "simulate", {"source": _numbered_source(index)})
                assert created
                executor.submit(job)
                jobs.append(job)

            try:
                # Two blocked batches hold both slots ...
                for index in range(2):
                    submit(index)
                    await _until(lambda: len(sizes) == index + 1)
                # ... so three more jobs wait in the queue together.
                for index in range(2, 5):
                    submit(index)
                await asyncio.sleep(0.05)
                assert sizes == [1, 1]
                release.set()
                for job in jobs:
                    assert await job.wait(5.0)
                    assert job.state == "done"
            finally:
                release.set()
                await executor.stop()

        asyncio.run(scenario())
        assert sizes == [1, 1, 3]


# ---------------------------------------------------------------------------
# HTTP server end to end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One in-process server over a real socket, with an isolated cache."""
    from repro.serve.server import ServerHandle

    previous = cache_mod.swap_state()
    cache_mod.configure(
        str(tmp_path_factory.mktemp("serve-cache")), enabled=True)
    handle = ServerHandle(port=0, quota_rate=None, pool_jobs=2)
    handle.start()
    yield handle
    handle.stop()
    cache_mod.swap_state(previous)


def _client(server):
    from repro.serve.loadgen import HttpClient

    return HttpClient(server.host, server.port)


class TestHttpEndToEnd:
    def test_healthz_stats_isas(self, server):
        async def scenario():
            client = _client(server)
            try:
                status, health = await client.get_json("/v1/healthz")
                assert status == 200 and health["ok"]
                status, stats = await client.get_json("/v1/stats")
                assert status == 200 and "store" in stats
                status, inventory = await client.get_json("/v1/isas")
                assert status == 200
                assert set(inventory["isas"]) >= {"straight", "riscv", "bb"}
            finally:
                client.close()

        asyncio.run(scenario())

    def test_compile_simulate_and_store_dedup(self, server):
        async def scenario():
            client = _client(server)
            try:
                status, view = await client.post_json(
                    "/v1/compile?wait=60",
                    {"source": SRC, "target": "straight"})
                assert status == 200 and view["state"] == "done"
                assert view["result"]["asm"]
                assert view["result"]["diagnostics"]["ok"]

                status, view = await client.post_json(
                    "/v1/simulate?wait=60", {"source": SRC})
                assert status == 200 and view["state"] == "done"
                assert view["result"]["output"] == [42]
                assert view["served"] == "fresh"

                status, again = await client.post_json(
                    "/v1/simulate?wait=60", {"source": SRC})
                assert status == 200 and again["served"] == "store"
                assert again["job"] == view["job"]
            finally:
                client.close()

        asyncio.run(scenario())

    def test_timing_run_reports_cycles(self, server):
        async def scenario():
            client = _client(server)
            try:
                status, view = await client.post_json(
                    "/v1/simulate?wait=120",
                    {"source": SRC_LOOP, "core": "STRAIGHT-2way"})
                assert status == 200 and view["state"] == "done"
                assert view["result"]["stats"]["cycles"] > 0
            finally:
                client.close()

        asyncio.run(scenario())

    def test_sse_stream_over_http_is_ordered_and_terminates(self, server):
        async def scenario():
            client = _client(server)
            try:
                status, view = await client.post_json(
                    "/v1/simulate?wait=60", {"source": SRC})
                assert status == 200
                status, events = await client.stream_events(
                    f"/v1/jobs/{view['job']}/events")
                assert status == 200
                names = [e["event"] for e in events]
                assert names[0] == "queued" and names[-1] == "done"
                assert [int(e["id"]) for e in events] == list(
                    range(len(events)))
            finally:
                client.close()

        asyncio.run(scenario())

    def test_explore_all_registered_isas(self, server):
        """Acceptance: asm + diagnostics + Kanata trace for all three ISAs."""
        async def scenario():
            client = _client(server)
            try:
                status, view = await client.post_json(
                    "/v1/explore?wait=300", {"source": SRC_LOOP})
                assert status == 200 and view["state"] == "done"
                isas = view["result"]["isas"]
                assert set(isas) >= {"straight", "riscv", "bb"}
                for name, entry in isas.items():
                    assert entry["variants"], name
                    for variant in entry["variants"].values():
                        assert variant["asm"].strip()
                        assert variant["output"] == [45]
                    assert entry["timing"]["kanata"].startswith("Kanata")
                    assert entry["timing"]["cycles"] > 0
                # The STRAIGHT verifier must actually have run.
                straight_variant = next(
                    iter(isas["straight"]["variants"].values()))
                assert straight_variant["diagnostics"]["ok"]
            finally:
                client.close()

        asyncio.run(scenario())

    def test_job_404_and_route_404_and_bad_json(self, server):
        async def scenario():
            client = _client(server)
            try:
                status, _view = await client.get_json("/v1/jobs/nope")
                assert status == 404
                status, _view = await client.get_json("/v1/bogus")
                assert status == 404
                status, _h, body = await client.request(
                    "POST", "/v1/simulate", headers={})
                assert status == 400 or b"exactly one" in body
                status, view = await client.post_json(
                    "/v1/simulate", {"source": SRC, "bogus": True})
                assert status == 400
                assert "unknown simulate field" in view["error"]
            finally:
                client.close()

        asyncio.run(scenario())

    def test_quota_429_with_retry_after(self):
        from repro.serve.server import ServerHandle

        previous = cache_mod.swap_state()
        handle = ServerHandle(port=0, quota_rate=0.001, quota_burst=2.0)
        handle.start()
        try:
            async def scenario():
                client = _client(handle)
                try:
                    headers = {"X-Client-Id": "hog"}
                    for _ in range(2):
                        status, _view = await client.post_json(
                            "/v1/simulate", {"source": SRC},
                            headers=headers)
                        assert status in (200, 202)
                    status, response_headers, body = await client.request(
                        "POST", "/v1/simulate", body={"source": SRC},
                        headers=headers)
                    assert status == 429
                    assert float(response_headers["retry-after"]) > 0
                    assert b"quota" in body
                finally:
                    client.close()

            asyncio.run(scenario())
        finally:
            handle.stop()
            cache_mod.swap_state(previous)


# ---------------------------------------------------------------------------
# Cache configuration thread-safety (satellite a)
# ---------------------------------------------------------------------------


class TestCacheThreadSafety:
    def test_singleton_identity_under_concurrent_first_touch(self, tmp_path):
        previous = cache_mod.swap_state()
        try:
            cache_mod.configure(str(tmp_path / "cache"), enabled=True)
            barrier = threading.Barrier(8)
            seen = []
            lock = threading.Lock()

            def touch():
                barrier.wait()
                instance = cache_mod.result_cache()
                with lock:
                    seen.append(id(instance))

            threads = [threading.Thread(target=touch) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(set(seen)) == 1, \
                "concurrent first-touch must build exactly one cache"
        finally:
            cache_mod.swap_state(previous)

    def test_concurrent_lookups_keep_stats_consistent(self, tmp_path):
        previous = cache_mod.swap_state()
        try:
            cache_mod.configure(str(tmp_path / "cache"), enabled=True)
            results = cache_mod.result_cache()
            for index in range(4):
                results.put({"seed": index}, {"value": index})
            threads_n, iterations = 8, 50
            barrier = threading.Barrier(threads_n)
            failures = []

            def hammer(worker):
                barrier.wait()
                try:
                    for i in range(iterations):
                        key = {"seed": i % 4}
                        hit = cache_mod.result_cache().get(key)
                        assert hit == {"value": i % 4}
                        cache_mod.result_cache().put(
                            {"w": worker, "i": i}, {"v": i})
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append(exc)

            threads = [threading.Thread(target=hammer, args=(n,))
                       for n in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures
            stats = results.stats
            lookups = threads_n * iterations
            assert stats.hits + stats.misses == lookups, \
                "racing stat bumps must not lose counts"
            assert stats.hits == lookups
            assert stats.stores == 4 + threads_n * iterations
        finally:
            cache_mod.swap_state(previous)

    def test_concurrent_configure_and_lookup_do_not_crash(self, tmp_path):
        previous = cache_mod.swap_state()
        try:
            stop = [False]
            failures = []

            def reconfigure():
                try:
                    for index in range(20):
                        cache_mod.configure(
                            str(tmp_path / f"cache{index % 2}"),
                            enabled=True)
                        time.sleep(0.001)
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)
                finally:
                    stop[0] = True

            def lookup():
                try:
                    while not stop[0]:
                        cache = cache_mod.result_cache()
                        if cache is not None:
                            cache.get({"probe": 1})
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)

            threads = [threading.Thread(target=reconfigure)] + [
                threading.Thread(target=lookup) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures
        finally:
            cache_mod.swap_state(previous)
