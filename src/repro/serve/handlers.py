"""Route handlers for the partitioning service.

Split from :mod:`repro.serve.app` so the HTTP plumbing and the
service's behavior stay independently readable.  Handlers are small
async closures over the :class:`~repro.serve.queue.JobManager` (submit,
poll, cancel, progress streams) and the
:class:`~repro.serve.artifacts.ArtifactCache` (point lookups and
quality summaries); blocking work — attaching ``parts.npy``, building
the vertex cover, recomputing a streamed quality report — runs on the
event loop's default executor so the service stays responsive while a
partition executes.
"""

from __future__ import annotations

import asyncio
import json
from typing import AsyncIterator

from repro.runtime.store import MissingEntryError
from repro.serve.app import App, HTTPError, Request, Response
from repro.serve.artifacts import ArtifactCache, AttachedArtifact
from repro.serve.queue import JobManager, JobState

__all__ = ["register_routes"]


def _ndjson(event: dict) -> bytes:
    """One progress event as an NDJSON line."""
    return (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")


def register_routes(app: App, manager: JobManager,
                    cache: ArtifactCache) -> None:
    """Attach every service endpoint to ``app``."""

    def find_job(request: Request):
        """The job named by the ``{id}`` path parameter, or a 404."""
        job = manager.jobs.get(request.params["id"])
        if job is None:
            raise HTTPError(404, f"no such job: {request.params['id']}")
        return job

    async def attach_artifact(request: Request) -> AttachedArtifact:
        """The completed job's artifact, attached via the LRU.

        A job whose stored entry is gone or torn fails here with a 409,
        so a resubmit recomputes it.
        """
        job = find_job(request)
        if job.state != JobState.SUCCEEDED:
            raise HTTPError(
                409, f"job {job.id} is {job.state}; lookups need a "
                "completed result"
            )
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, cache.attach, job.key)
        except MissingEntryError as exc:
            raise HTTPError(409, manager.fail_lost_result(job, exc))

    @app.route("GET", "/healthz")
    async def healthz(request: Request) -> Response:
        """Service liveness: job counts, live pools, store counters."""
        from repro.stream.workers import live_pool_health

        states: dict[str, int] = {}
        for job in manager.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return Response(200, {
            "status": "ok",
            "jobs": states,
            "executions": manager.executions,
            "pools": live_pool_health(),
            "store": {
                "hits": manager.store.hits,
                "misses": manager.store.misses,
                "quarantined": manager.store.quarantined,
            },
        })

    @app.route("POST", "/jobs")
    async def submit(request: Request) -> Response:
        """Submit a job; dedups onto an identical in-flight/completed one."""
        job, created = await manager.submit(request.json())
        doc = job.describe()
        doc["created"] = created
        doc["deduped"] = not created
        return Response(201 if created else 200, doc)

    @app.route("GET", "/jobs")
    async def list_jobs(request: Request) -> Response:
        """Every known job, newest first."""
        jobs = sorted(
            manager.jobs.values(), key=lambda j: j.created_at, reverse=True
        )
        return Response(200, {"jobs": [job.describe() for job in jobs]})

    @app.route("GET", "/jobs/{id}")
    async def job_status(request: Request) -> Response:
        """One job's status document."""
        return Response(200, find_job(request).describe())

    @app.route("POST", "/jobs/{id}/cancel")
    async def cancel(request: Request) -> Response:
        """Cancel a queued job now, or a running one at the next stage."""
        job = await manager.cancel(request.params["id"])
        if job is None:
            raise HTTPError(404, f"no such job: {request.params['id']}")
        return Response(202, job.describe())

    @app.route("GET", "/jobs/{id}/events")
    async def events(request: Request) -> Response:
        """Progress events as NDJSON; streams live while the job runs.

        ``?since=N`` resumes after sequence number ``N-1``; ``?wait=0``
        returns the current snapshot without following the live run.
        """
        job = find_job(request)
        try:
            since = int(request.query.get("since", "0"))
        except ValueError:
            raise HTTPError(400, "since must be an integer")
        follow = request.query.get("wait", "1") not in ("0", "false")
        if not follow or job.events.closed:
            body = b"".join(_ndjson(e) for e in job.events.snapshot(since))
            return Response(200, body, content_type="application/x-ndjson")

        async def stream() -> AsyncIterator[bytes]:
            """Yield NDJSON lines until the job's event log closes."""
            cursor = since
            while True:
                batch = await job.events.wait_beyond(cursor)
                if not batch:
                    return
                for event in batch:
                    yield _ndjson(event)
                cursor = batch[-1]["seq"] + 1

        return Response(
            200, stream=stream(), content_type="application/x-ndjson"
        )

    @app.route("GET", "/jobs/{id}/result")
    async def result(request: Request) -> Response:
        """The completed job's result summary."""
        job = find_job(request)
        if job.summary is None:
            raise HTTPError(
                409, f"job {job.id} is {job.state}; no result yet"
            )
        return Response(200, job.summary)

    @app.route("GET", "/jobs/{id}/edge/{eid}")
    async def edge_lookup(request: Request) -> Response:
        """``edge → part`` from the attached artifact."""
        artifact = await attach_artifact(request)
        eid = request.int_param("eid")
        return Response(200, {
            "edge": eid, "part": artifact.edge_part(eid), "key": artifact.key,
        })

    @app.route("GET", "/jobs/{id}/vertex/{v}")
    async def vertex_lookup(request: Request) -> Response:
        """``vertex → parts`` (replica set) from the attached artifact."""
        artifact = await attach_artifact(request)
        vertex = request.int_param("v")
        loop = asyncio.get_running_loop()
        parts = await loop.run_in_executor(
            None, artifact.vertex_parts, vertex
        )
        return Response(200, {
            "vertex": vertex, "parts": parts, "key": artifact.key,
        })

    @app.route("GET", "/jobs/{id}/quality")
    async def quality(request: Request) -> Response:
        """Quality summary; ``?recompute=1`` re-streams the checked input."""
        artifact = await attach_artifact(request)
        if request.query.get("recompute") not in ("1", "true"):
            return Response(200, artifact.quality())
        from repro.metrics.streaming import streamed_quality_report

        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None,
            lambda: streamed_quality_report(
                artifact.input_path(), artifact.parts, artifact.k
            ),
        )
        return Response(200, {
            "k": report.k,
            "num_vertices": report.num_vertices,
            "num_edges": report.num_edges,
            "replication_factor": report.replication_factor,
            "edge_balance": report.edge_balance,
            "num_unassigned": report.num_unassigned,
            "recomputed": True,
        })
