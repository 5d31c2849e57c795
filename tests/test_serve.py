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
import shutil

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


def _reference_vertex_parts(graph, parts):
    """``vertex → ascending parts`` from ``np.unique(p * n + v)``."""
    n = graph.num_vertices
    assigned = parts >= 0
    p = parts[assigned].astype(np.int64) * n
    edges = graph.edges[assigned]
    keys = np.unique(np.concatenate([p + edges[:, 0], p + edges[:, 1]]))
    want = {v: [] for v in range(n)}
    for key in keys.tolist():
        want[key % n].append(key // n)
    return want


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
            text_file = tmp_path / "sv.txt"
            text_file.write_text("0 1\n1 2\n")
            with pytest.raises(
                SubmitError, match="shard manifests or flat binary"
            ):
                await manager.submit(_payload(text_file, workers=2))
            with pytest.raises(SubmitError, match="unknown algorithm"):
                await manager.submit(_payload(edge_file, algo="NoSuch"))
            with pytest.raises(SubmitError, match="no parameter 'passes'"):
                await manager.submit(
                    _payload(edge_file, algo="Greedy",
                             algo_params={"passes": 2})
                )
            for params, name in (({"eps": 0.0}, "eps"), ({"eps": -1.0}, "eps"),
                                 ({"lam": -2.0}, "lam")):
                with pytest.raises(
                    SubmitError, match=f"{name} must be a finite number"
                ):
                    await manager.submit(
                        _payload(edge_file, algo_params=params)
                    )
            for extra, match in (
                ({"algo": "HEP", "tau": 2.0, "memory_budget": 400000},
                 "conflict"),
                ({"workers": 2, "memory_budget": 1000}, "tunes HEP's tau"),
                ({"algo": "DBH", "tau": 3.0}, "degree threshold"),
                ({"chunk_size": 0}, "chunk_size must be >= 1"),
                ({"prefetch": 2}, "unknown submit key"),
                ({"mmap": True}, "unknown submit key"),
            ):
                with pytest.raises(SubmitError, match=match):
                    await manager.submit(_payload(edge_file, **extra))
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
            # Specs that could only fail once running.
            for payload, match in (
                (_payload(edge_file, algo="Restreaming",
                          algo_params={"passes": 0}), "passes must be >= 1"),
                (_payload("OK", workers=2), "edge file or shard manifest"),
            ):
                status, doc = await _asgi_json(app, "POST", "/jobs", payload)
                assert status == 400 and match in doc["error"]
                assert doc["error"].startswith("invalid job spec: ")
            assert manager.jobs == {}
            await manager.shutdown()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "case", ["directory", "missing-shard", "bad-json"]
    )
    def test_unreadable_input_is_400_naming_path_and_reason(
        self, case, manifest, tmp_path
    ):
        """A source that is not a readable edge file or manifest is a
        400 naming it and why, never a dropped connection or a 500."""
        if case == "directory":
            source, reason = tmp_path, "is a directory"
        else:
            source = tmp_path / "broken.manifest.json"
            if case == "bad-json":
                source.write_text("{not json", encoding="utf-8")
                reason = "unreadable shard manifest"
            else:
                doc = json.loads(manifest.read_text(encoding="utf-8"))
                doc["shards"][1]["path"] = "no-such-shard.bin"
                source.write_text(json.dumps(doc), encoding="utf-8")
                reason = "missing shard file"

        async def scenario():
            _, manager, _, app = await _service(tmp_path / "c", start=False)
            status, doc = await _asgi_json(
                app, "POST", "/jobs", _payload(source)
            )
            assert status == 400, doc
            assert str(source) in doc["error"] and reason in doc["error"]
            assert manager.jobs == {}
            await manager.shutdown()

        asyncio.run(scenario())

    def test_removed_execution_keys_are_400(self, edge_file, tmp_path):
        """The scan-worker, pool-plumbing, scoring-window and fixed
        tau-grid/id-size knobs are gone from the spec; a payload still
        naming one is refused, not ignored."""
        async def scenario():
            _, manager, _, app = await _service(tmp_path / "c", start=False)
            for key, value in (
                ("metrics_workers", 2), ("mp_context", "fork"),
                ("timeout", 30.0), ("buffer_size", 64),
                ("tau_grid", [1.0, 10.0]), ("id_bytes", 8),
            ):
                status, doc = await _asgi_json(
                    app, "POST", "/jobs", _payload(edge_file, **{key: value})
                )
                assert status == 400
                assert doc["error"] == f"unknown submit key(s): {key}"
            assert manager.jobs == {}
            await manager.shutdown()

        asyncio.run(scenario())

    def test_unusable_spec_values_are_400(self, edge_file, manifest, tmp_path):
        """Values the run would fail on or misread are refused at submit."""
        async def scenario():
            _, manager, _, app = await _service(tmp_path / "c", start=False)
            for extra, match in (
                ({"alpha": 0.0}, "alpha must be >= 1.0"),
                ({"alpha": float("nan")}, "alpha must be >= 1.0"),
                ({"spill_compression": "lz4"}, "unknown spill compression"),
                ({"workers": 2.0}, "workers must be an integer >= 0"),
                ({"workers": True}, "workers must be an integer >= 0"),
                ({"workers": 2, "batch": 2.5},
                 "batch must be an integer >= 1"),
                ({"workers": 2, "batch": True},
                 "batch must be an integer >= 1"),
                ({"batch": 16}, "it requires workers >= 1"),
                ({"order": "bogus"}, "binary file sources support 'natural' "
                 "or 'shuffled' order, got 'bogus'"),
                ({"order": "random"}, "got 'random'"),
                ({"source": str(manifest), "order": "shuffled"},
                 "sharded sources are sequential-only (order='natural')"),
                ({"algo": "HDRF", "memory_budget": None, "workers": 2,
                  "order": "shuffled"},
                 "multi-worker HDRF streams its shards in file order"),
                ({"k": 8.9}, "k must be an integer >= 2, got 8.9"),
                ({"algo": "DBH", "memory_budget": None, "k": 8.9},
                 "k must be an integer >= 2, got 8.9"),
                ({"k": "8"}, "k must be an integer >= 2, got '8'"),
                ({"k": True}, "k must be an integer >= 2, got True"),
            ):
                fields = {"algo": "HEP", "memory_budget": 400_000, **extra}
                payload = _payload(fields.pop("source", edge_file), **fields)
                status, doc = await _asgi_json(app, "POST", "/jobs", payload)
                assert status == 400
                assert doc["error"].startswith("invalid job spec: ")
                assert match in doc["error"]
            assert manager.jobs == {}
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

    def test_http_round_trip_and_event_stream(
        self, graph, edge_file, tmp_path
    ):
        """The same scenario HTTP-shaped: every byte through the app."""
        async def scenario():
            store, manager, cache, app = await _service(tmp_path / "cache")
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

                # Every vertex's replica set equals an independent
                # np.unique over the stored assignment.
                want = _reference_vertex_parts(
                    graph, cache.attach(job.key).parts
                )
                for vertex in range(graph.num_vertices):
                    status, doc = await _asgi_json(
                        app, "GET", f"/jobs/{job_id}/vertex/{vertex}"
                    )
                    assert status == 200
                    assert doc["parts"] == want[vertex], vertex
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

    @pytest.mark.parametrize("change", ["edited", "deleted", "shard-deleted"])
    def test_changed_input_is_409_for_reads_of_the_input(
        self, change, tmp_path
    ):
        """An input edited or deleted after the run answers 409 naming it."""
        graph = chung_lu(300, mean_degree=6, exponent=2.2, seed=41)
        if change == "shard-deleted":
            from repro.stream import write_sharded_edges

            path = tmp_path / "input.manifest.json"
            shards = write_sharded_edges(graph, path, num_shards=2)
        else:
            path = tmp_path / "input.bin"
            write_binary_edgelist(graph, path)

        async def scenario():
            _, manager, _, app = await _service(tmp_path / "cache")
            try:
                job, _ = await manager.submit(_payload(path))
                await asyncio.wait_for(_collect_events(job), timeout=240)
                assert job.state == JobState.SUCCEEDED
                if change == "edited":
                    write_binary_edgelist(
                        chung_lu(300, mean_degree=6, exponent=2.2, seed=42),
                        path,
                    )
                elif change == "deleted":
                    path.unlink()
                else:
                    shards.shard_paths[1].unlink()
                for route, query in (
                    ("vertex/0", ""), ("quality", "recompute=1"),
                ):
                    status, doc = await _asgi_json(
                        app, "GET", f"/jobs/{job.id}/{route}", query=query
                    )
                    assert status == 409, doc
                    assert str(path) in doc["error"]
                # Stored answers need no input and still answer.
                for route in ("edge/0", "quality"):
                    status, doc = await _asgi_json(
                        app, "GET", f"/jobs/{job.id}/{route}"
                    )
                    assert status == 200, doc
            finally:
                await manager.shutdown()

        asyncio.run(asyncio.wait_for(scenario(), timeout=300))

    def test_handler_exception_is_500_naming_the_error(self, tmp_path):
        """A handler that raises an unexpected exception answers a JSON
        500 naming it instead of dropping the connection, and the
        service keeps answering."""
        async def scenario():
            _, manager, _, app = await _service(tmp_path / "c", start=False)

            @app.route("GET", "/boom")
            async def boom(request):
                raise ValueError("EOF: reading array data")

            try:
                status, doc = await _asgi_json(app, "GET", "/boom")
                assert status == 500, doc
                assert doc["error"] == "ValueError: EOF: reading array data"
                status, _ = await _asgi_json(app, "GET", "/healthz")
                assert status == 200
            finally:
                await manager.shutdown()

        asyncio.run(scenario())

    @pytest.mark.parametrize("loss", ["torn", "deleted"])
    def test_lost_stored_entry_is_409_and_a_resubmit_recomputes(
        self, loss, edge_file, tmp_path
    ):
        """A lookup that finds the job's entry torn (quarantined once) or
        deleted answers 409 naming why; the job turns failed, so the
        next submit runs it again under the same id and lookups answer
        200 again."""
        async def scenario():
            store, manager, _, app = await _service(tmp_path / "cache")
            try:
                job, _ = await manager.submit(_payload(edge_file))
                await asyncio.wait_for(_collect_events(job), timeout=240)
                assert job.state == JobState.SUCCEEDED
                entry = store.entry_path(job.key)
                if loss == "torn":
                    parts = entry / "parts.npy"
                    parts.write_bytes(parts.read_bytes()[:100])
                    reason = "was torn"
                else:
                    shutil.rmtree(entry)
                    reason = "no stored entry"
                status, doc = await _asgi_json(
                    app, "GET", f"/jobs/{job.id}/edge/0"
                )
                assert status == 409, doc
                assert reason in doc["error"]
                assert "resubmit" in doc["error"]
                status, doc = await _asgi_json(app, "GET", "/healthz")
                assert doc["store"]["quarantined"] == (loss == "torn")
                status, doc = await _asgi_json(app, "GET", f"/jobs/{job.id}")
                assert doc["state"] == JobState.FAILED
                assert reason in doc["error"]

                status, doc = await _asgi_json(
                    app, "POST", "/jobs", _payload(edge_file)
                )
                assert status == 201 and doc["id"] == job.id, doc
                await asyncio.wait_for(
                    _collect_events(manager.jobs[job.id]), timeout=240
                )
                status, doc = await _asgi_json(
                    app, "GET", f"/jobs/{job.id}/edge/0"
                )
                assert status == 200 and 0 <= doc["part"] < K, doc
                assert manager.executions == 2
                assert store.quarantined == (loss == "torn")
            finally:
                await manager.shutdown()

        asyncio.run(asyncio.wait_for(scenario(), timeout=300))

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
