"""Tests for repro.serve: the async partitioning service.

The acceptance property: two concurrent identical submits execute the
pipeline **once** — both callers land on the same job (whose id is the
store's content-addressed cache key), progress events derived from the
run's trace spans stream to a subscriber while the job runs, and after
completion every lookup (result summary, ``edge → part``,
``vertex → parts``, quality) answers from the cached artifact without
re-partitioning.

The service is driven fully in-process: manager-level through
:class:`~repro.serve.queue.JobManager`, and HTTP-shaped through the
:class:`~repro.serve.app.App` ASGI callable — no sockets, no
subprocesses, so the tests stay fast and deterministic.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.graph import write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.runtime import ArtifactStore
from repro.serve import (
    ArtifactCache,
    EventLog,
    JobManager,
    JobState,
    QueueFullError,
    SubmitError,
    create_app,
)

K = 8


@pytest.fixture(scope="module")
def graph():
    return chung_lu(300, mean_degree=6, exponent=2.2, seed=41, name="sv")


@pytest.fixture(scope="module")
def edge_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("sv") / "sv.bin"
    write_binary_edgelist(graph, path)
    return path


@pytest.fixture(scope="module")
def manifest(graph, tmp_path_factory):
    from repro.stream import write_sharded_edges

    out = tmp_path_factory.mktemp("svm") / "sv.manifest.json"
    write_sharded_edges(graph, out, num_shards=2)
    return out


def _payload(source, **extra):
    doc = {"source": str(source), "algo": "HDRF", "k": K, "chunk_size": 256}
    doc.update(extra)
    return doc


async def _asgi(app, method, path, body=None, query=""):
    """Drive the ASGI callable once; returns ``(status, body bytes)``."""
    blob = json.dumps(body).encode("utf-8") if body is not None else b""
    inbox = [{"type": "http.request", "body": blob, "more_body": False}]
    outbox = []

    async def receive():
        return inbox.pop(0)

    async def send(message):
        outbox.append(message)

    scope = {
        "type": "http", "method": method, "path": path,
        "query_string": query.encode("latin-1"),
    }
    await app(scope, receive, send)
    status = outbox[0]["status"]
    payload = b"".join(m.get("body", b"") for m in outbox[1:])
    return status, payload


async def _asgi_json(app, method, path, body=None, query=""):
    status, blob = await _asgi(app, method, path, body, query)
    return status, (json.loads(blob) if blob.strip() else {})


async def _service(store_root, queue_size=16, start=True):
    """A wired (store, manager, cache, app) quadruple on this loop."""
    loop = asyncio.get_running_loop()
    store = ArtifactStore(store_root)
    manager = JobManager(store, queue_size=queue_size, loop=loop)
    cache = ArtifactCache(store)
    app = create_app(manager, cache)
    if start:
        await manager.start()
    return store, manager, cache, app


async def _collect_events(job):
    """Follow a job's event log until it closes; returns every event."""
    events, cursor = [], 0
    while True:
        batch = await job.events.wait_beyond(cursor)
        if not batch:
            return events
        events.extend(batch)
        cursor = batch[-1]["seq"] + 1


class TestEventLog:
    def test_sequence_numbers_and_snapshot(self):
        async def scenario():
            log = EventLog(asyncio.get_running_loop())
            log.append({"event": "a"})
            log.append({"event": "b"})
            assert [e["seq"] for e in log.snapshot()] == [0, 1]
            assert [e["event"] for e in log.snapshot(1)] == ["b"]
            assert len(log) == 2

        asyncio.run(scenario())

    def test_wait_beyond_returns_existing_then_blocks_until_close(self):
        async def scenario():
            log = EventLog(asyncio.get_running_loop())
            log.append({"event": "a"})
            batch = await log.wait_beyond(0)
            assert [e["event"] for e in batch] == ["a"]
            waiter = asyncio.ensure_future(log.wait_beyond(1))
            await asyncio.sleep(0)
            assert not waiter.done()
            log.append({"event": "b"})
            assert [e["event"] for e in await waiter] == ["b"]
            log.close()
            assert await log.wait_beyond(2) == []

        asyncio.run(scenario())

    def test_threadsafe_append_hops_onto_the_loop(self):
        async def scenario():
            import threading

            log = EventLog(asyncio.get_running_loop())
            thread = threading.Thread(
                target=log.append_threadsafe, args=({"event": "x"},)
            )
            thread.start()
            thread.join()
            batch = await asyncio.wait_for(log.wait_beyond(0), timeout=5)
            assert [e["event"] for e in batch] == ["x"]

        asyncio.run(scenario())


class TestSubmitValidation:
    def test_bad_payloads_raise_submit_error(self, edge_file, tmp_path):
        async def scenario():
            _, manager, _, _ = await _service(tmp_path / "c", start=False)
            with pytest.raises(SubmitError, match="missing 'k'"):
                await manager.submit({"source": str(edge_file)})
            with pytest.raises(SubmitError, match="unknown submit key"):
                await manager.submit(_payload(edge_file, bogus=1))
            with pytest.raises(SubmitError, match="no such edge file"):
                await manager.submit(_payload(tmp_path / "missing.bin"))
            with pytest.raises(SubmitError, match="invalid job spec"):
                await manager.submit(_payload(edge_file, k=1))
            with pytest.raises(SubmitError, match="supports HEP or HDRF"):
                await manager.submit(
                    _payload(edge_file, algo="Greedy", workers=2)
                )
            with pytest.raises(SubmitError, match="streaming baseline"):
                await manager.submit(_payload(edge_file, algo="NoSuch"))
            with pytest.raises(SubmitError, match="no parameter 'passes'"):
                await manager.submit(
                    _payload(edge_file, algo="Greedy",
                             algo_params={"passes": 2})
                )
            with pytest.raises(SubmitError, match="JSON object"):
                await manager.submit(["not", "a", "dict"])
            await manager.shutdown()

        asyncio.run(scenario())

    def test_bad_payloads_map_to_400_over_http(self, edge_file, tmp_path):
        async def scenario():
            _, manager, _, app = await _service(tmp_path / "c", start=False)
            status, doc = await _asgi_json(
                app, "POST", "/jobs", _payload(edge_file, bogus=1)
            )
            assert status == 400 and "bogus" in doc["error"]
            status, doc = await _asgi_json(app, "POST", "/jobs")
            assert status == 400
            await manager.shutdown()

        asyncio.run(scenario())

    def test_queue_full_is_503(self, edge_file, tmp_path):
        async def scenario():
            _, manager, _, app = await _service(
                tmp_path / "c", queue_size=1, start=False
            )
            status, _ = await _asgi_json(
                app, "POST", "/jobs", _payload(edge_file)
            )
            assert status == 201
            with pytest.raises(QueueFullError):
                await manager.submit(_payload(edge_file, k=4))
            status, doc = await _asgi_json(
                app, "POST", "/jobs", _payload(edge_file, k=16)
            )
            assert status == 503 and "full" in doc["error"]
            await manager.shutdown()

        asyncio.run(scenario())

    def test_unknown_routes_and_methods(self, tmp_path):
        async def scenario():
            _, manager, _, app = await _service(tmp_path / "c", start=False)
            assert (await _asgi(app, "GET", "/nope"))[0] == 404
            assert (await _asgi(app, "GET", "/jobs/deadbeef"))[0] == 404
            assert (await _asgi(app, "POST", "/healthz"))[0] == 405
            await manager.shutdown()

        asyncio.run(scenario())


class TestCancelQueued:
    def test_cancelled_queued_job_never_runs_and_resubmits_fresh(
        self, edge_file, tmp_path
    ):
        async def scenario():
            _, manager, _, app = await _service(tmp_path / "c", start=False)
            job, created = await manager.submit(_payload(edge_file))
            assert created and job.state == JobState.QUEUED
            status, doc = await _asgi_json(
                app, "POST", f"/jobs/{job.id}/cancel"
            )
            assert status == 202 and doc["state"] == JobState.CANCELLED
            assert job.events.closed
            # Cancelled is not a dedup target: the same payload makes a
            # fresh job under the same content-addressed id.
            job2, created2 = await manager.submit(_payload(edge_file))
            assert created2 and job2 is not job and job2.id == job.id
            status, _ = await _asgi_json(
                app, "POST", "/jobs/deadbeef/cancel"
            )
            assert status == 404
            await manager.shutdown()

        asyncio.run(scenario())


class TestServeEndToEnd:
    def test_concurrent_identical_submits_execute_once(
        self, manifest, tmp_path
    ):
        """The PR's acceptance scenario, manager-level."""
        async def scenario():
            store, manager, _, app = await _service(tmp_path / "cache")
            payload = _payload(manifest, workers=2)
            try:
                job1, created1 = await manager.submit(payload)
                # Subscribe *before* completion so the events stream live.
                collector = asyncio.ensure_future(_collect_events(job1))
                job2, created2 = await manager.submit(payload)
                assert created1 and not created2 and job1 is job2
                assert job1.submits == 2
                events = await asyncio.wait_for(collector, timeout=240)

                assert job1.state == JobState.SUCCEEDED
                assert manager.executions == 1
                assert job1.summary["job_hash"] == job1.spec.content_hash()
                assert job1.summary["k"] == K
                assert not job1.summary["cache_hit"]

                kinds = [e["event"] for e in events]
                assert kinds.count("dedup") == 1
                spans = [e for e in events if e["event"] == "span"]
                span_names = {e["span"] for e in spans}
                assert "partition" in span_names
                assert len(spans) >= 2  # pipeline spans, not just the root
                # Events arrive ordered by their sequence numbers.
                assert [e["seq"] for e in events] == list(range(len(events)))
                terminal = [e for e in events if e["event"] == "state"][-1]
                assert terminal["state"] == JobState.SUCCEEDED

                # A post-completion resubmit reuses the finished record.
                job3, created3 = await manager.submit(payload)
                assert job3 is job1 and not created3
                assert manager.executions == 1

                # Lookups answer from the stored artifact — still one
                # execution afterwards.
                status, edge = await _asgi_json(
                    app, "GET", f"/jobs/{job1.id}/edge/0"
                )
                assert status == 200 and 0 <= edge["part"] < K
                status, vertex = await _asgi_json(
                    app, "GET", f"/jobs/{job1.id}/vertex/0"
                )
                assert status == 200 and vertex["parts"]
                assert all(0 <= p < K for p in vertex["parts"])
                status, quality = await _asgi_json(
                    app, "GET", f"/jobs/{job1.id}/quality"
                )
                assert status == 200
                assert quality["replication_factor"] >= 1.0
                assert manager.executions == 1
            finally:
                await manager.shutdown()

        asyncio.run(asyncio.wait_for(scenario(), timeout=300))

    def test_http_round_trip_and_event_stream(self, edge_file, tmp_path):
        """The same scenario HTTP-shaped: every byte through the app."""
        async def scenario():
            store, manager, _, app = await _service(tmp_path / "cache")
            payload = _payload(edge_file)
            try:
                status, first = await _asgi_json(
                    app, "POST", "/jobs", payload
                )
                assert status == 201 and first["created"]
                job_id = first["id"]
                status, second = await _asgi_json(
                    app, "POST", "/jobs", payload
                )
                assert status == 200 and second["deduped"]
                assert second["id"] == job_id

                job = manager.jobs[job_id]
                await asyncio.wait_for(_collect_events(job), timeout=240)

                status, doc = await _asgi_json(
                    app, "GET", f"/jobs/{job_id}"
                )
                assert status == 200
                assert doc["state"] == JobState.SUCCEEDED
                assert doc["submits"] == 2

                # The snapshot endpoint replays the full NDJSON stream.
                status, blob = await _asgi(
                    app, "GET", f"/jobs/{job_id}/events", query="wait=0"
                )
                assert status == 200
                lines = [
                    json.loads(line)
                    for line in blob.decode().splitlines() if line
                ]
                assert sum(
                    1 for e in lines
                    if e["event"] == "span" and e["span"] == "partition"
                ) == 1
                assert any(e["event"] == "dedup" for e in lines)
                # …and ?since resumes mid-stream.
                status, tail = await _asgi(
                    app, "GET", f"/jobs/{job_id}/events",
                    query=f"wait=0&since={lines[-1]['seq']}",
                )
                assert json.loads(tail)["seq"] == lines[-1]["seq"]

                status, summary = await _asgi_json(
                    app, "GET", f"/jobs/{job_id}/result"
                )
                assert status == 200
                assert summary["job_hash"] == job.spec.content_hash()

                status, listing = await _asgi_json(app, "GET", "/jobs")
                assert status == 200
                assert [j["id"] for j in listing["jobs"]] == [job_id]

                status, health = await _asgi_json(app, "GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                assert health["executions"] == 1
                assert health["jobs"] == {JobState.SUCCEEDED: 1}
                assert health["pools"] == []
            finally:
                await manager.shutdown()

        asyncio.run(asyncio.wait_for(scenario(), timeout=300))

    def test_lookup_before_completion_is_409(self, edge_file, tmp_path):
        async def scenario():
            _, manager, _, app = await _service(tmp_path / "c", start=False)
            job, _ = await manager.submit(_payload(edge_file))
            for path in (
                f"/jobs/{job.id}/result",
                f"/jobs/{job.id}/edge/0",
                f"/jobs/{job.id}/quality",
            ):
                status, doc = await _asgi_json(app, "GET", path)
                assert status == 409, path
            await manager.shutdown()

        asyncio.run(scenario())

    def test_service_result_matches_direct_run_job(
        self, edge_file, tmp_path
    ):
        """The service is a transport, not a different computation."""
        from repro.runtime import make_job, run_job

        direct = run_job(make_job("HDRF", edge_file, K, chunk_size=256))

        async def scenario():
            store, manager, cache, _ = await _service(tmp_path / "cache")
            try:
                job, _ = await manager.submit(_payload(edge_file))
                await asyncio.wait_for(_collect_events(job), timeout=240)
                assert job.state == JobState.SUCCEEDED
                artifact = cache.attach(job.key)
                assert np.array_equal(artifact.parts, direct.parts)
                assert artifact.quality()["replication_factor"] == (
                    direct.replication_factor
                )
            finally:
                await manager.shutdown()

        asyncio.run(asyncio.wait_for(scenario(), timeout=300))

    def test_second_service_instance_hits_the_shared_store(
        self, edge_file, tmp_path
    ):
        """A restarted service reuses the artifact store across runs."""
        async def run_once():
            store, manager, _, _ = await _service(tmp_path / "cache")
            try:
                job, _ = await manager.submit(_payload(edge_file))
                await asyncio.wait_for(_collect_events(job), timeout=240)
                assert job.state == JobState.SUCCEEDED
                return job.summary["cache_hit"], manager.executions
            finally:
                await manager.shutdown()

        cold_hit, cold_execs = asyncio.run(run_once())
        warm_hit, warm_execs = asyncio.run(run_once())
        assert (cold_hit, cold_execs) == (False, 1)
        # The second service's run is an execution (its manager counts
        # it) but the runtime answers from the store: cache_hit is set.
        assert (warm_hit, warm_execs) == (True, 1)


class TestArtifactCacheLRU:
    def test_capacity_evicts_least_recently_used(self, edge_file, tmp_path):
        async def scenario():
            store, manager, _, _ = await _service(tmp_path / "cache")
            try:
                keys = []
                for k in (4, 8, 16):
                    job, _ = await manager.submit(_payload(edge_file, k=k))
                    await asyncio.wait_for(
                        _collect_events(job), timeout=240
                    )
                    assert job.state == JobState.SUCCEEDED
                    keys.append(job.key)
                cache = ArtifactCache(store, capacity=2)
                for key in keys:
                    cache.attach(key)
                assert len(cache) == 2
                # Oldest evicted; re-attach reloads it from the store.
                assert cache.attach(keys[0]).key == keys[0]
            finally:
                await manager.shutdown()

        asyncio.run(asyncio.wait_for(scenario(), timeout=300))
