"""Bounded job queue, lifecycle states, and the background runner.

The :class:`JobManager` is the service's heart: clients submit a JSON
payload naming an edge file/manifest (or dataset stand-in), an
algorithm, ``k``, and any :class:`~repro.runtime.spec.JobSpec` knob;
the manager freezes it into a spec, derives the job id from the
store's content-addressed cache key (spec hash + input digest), and
enqueues it on a bounded :class:`asyncio.Queue`.  One background
runner drains the queue and executes each job with
:func:`~repro.runtime.api.run_job` on a single worker thread — worker
processes and shared memory stay per-run, exactly as in the CLI —
while a :class:`~repro.obs.bridge.SpanEventBridge` streams the run's
trace spans into the job's :class:`~repro.serve.events.EventLog` as
progress events.

Because the job id *is* the cache key, deduplication is free: an
identical spec submitted while the first is queued or running attaches
to the same :class:`Job` (one execution, shared event stream), and an
identical spec submitted after completion answers from the finished
record (whose artifact the :class:`~repro.runtime.store.ArtifactStore`
already holds).  Cancellation flips a :class:`threading.Event` the
runtime checks between planned stages — a cancelled run persists no
artifact, so a resubmit recomputes cleanly.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import JobCancelledError, ReproError
from repro.obs.bridge import SpanEventBridge, progress_event
from repro.obs.tracer import set_tracer
from repro.runtime.api import run_job, validate_spec
from repro.runtime.spec import JobSpec, make_job
from repro.runtime.store import (
    ArtifactStore,
    UnreadableInputError,
    require_input_digest,
)
from repro.serve.events import EventLog

__all__ = [
    "Job",
    "JobManager",
    "JobState",
    "QueueFullError",
    "SubmitError",
]


class JobState:
    """Lifecycle states a job moves through (stringly, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: states no runner will touch again
    TERMINAL = (SUCCEEDED, FAILED, CANCELLED)


class SubmitError(ReproError):
    """A submit payload is invalid (unknown key, bad spec, missing input)."""


class QueueFullError(ReproError):
    """The bounded job queue is at capacity; retry after a job drains."""


#: payload keys forwarded to :func:`~repro.runtime.spec.make_job`
_SPEC_KEYS = frozenset({
    "chunk_size", "order", "seed", "algo_params", "alpha", "tau",
    "memory_budget", "spill_dir", "spill_compression", "workers", "batch",
})


@dataclass
class Job:
    """One submitted partitioning job and everything clients ask about."""

    id: str
    key: str
    spec: JobSpec
    source: str
    events: EventLog
    state: str = JobState.QUEUED
    submits: int = 1
    error: str | None = None
    summary: dict[str, Any] | None = None
    created_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def describe(self) -> dict[str, Any]:
        """The job's status document (the ``GET /jobs/{id}`` body)."""
        doc: dict[str, Any] = {
            "id": self.id,
            "key": self.key,
            "content_hash": self.spec.content_hash(),
            "state": self.state,
            "source": self.source,
            "algo": self.spec.algo,
            "k": self.spec.k,
            "workers": self.spec.workers,
            "submits": self.submits,
            "events": len(self.events),
            "created_at": self.created_at,
        }
        if self.finished_at is not None:
            doc["finished_at"] = self.finished_at
        if self.error is not None:
            doc["error"] = self.error
        if self.summary is not None:
            doc["result"] = self.summary
        return doc


def _summarize(result) -> dict[str, Any]:
    """Shrink a :class:`~repro.runtime.result.PartitionResult` to JSON."""
    return {
        "algorithm": result.algorithm,
        "k": result.k,
        "num_vertices": result.num_vertices,
        "num_edges": result.num_edges,
        "replication_factor": result.replication_factor,
        "edge_balance": result.edge_balance,
        "runtime_s": result.runtime_s,
        "tau": result.tau,
        "passes": result.passes,
        "loads": [int(x) for x in result.loads],
        "cache_hit": result.cache_hit,
        "stages_executed": list(result.stages_executed),
        "job_hash": result.job_hash,
    }


class JobManager:
    """Owns the job table, the bounded queue, and the runner thread."""

    def __init__(
        self,
        store: ArtifactStore,
        queue_size: int = 16,
        loop: asyncio.AbstractEventLoop | None = None,
    ) -> None:
        """Bind the manager to ``store`` and size the pending queue."""
        self.store = store
        self.jobs: dict[str, Job] = {}
        self._loop = loop or asyncio.get_event_loop()
        self._queue: asyncio.Queue[Job] = asyncio.Queue(maxsize=queue_size)
        self._runner: asyncio.Task | None = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-runner"
        )
        self._draining = False
        self.executions = 0

    # -- submit/dedup --------------------------------------------------------

    def _build_spec(self, payload: dict[str, Any]) -> tuple[JobSpec, str]:
        """Freeze a submit payload into a (spec, source) pair or raise."""
        if not isinstance(payload, dict):
            raise SubmitError("submit body must be a JSON object")
        try:
            source = payload["source"]
            algo = payload.get("algo", "HDRF")
            k = payload["k"]
        except KeyError as exc:
            raise SubmitError(f"submit payload missing {exc.args[0]!r}")
        unknown = (
            set(payload) - _SPEC_KEYS - {"source", "algo", "k"}
        )
        if unknown:
            raise SubmitError(
                f"unknown submit key(s): {', '.join(sorted(unknown))}"
            )
        if not isinstance(source, str):
            raise SubmitError("source must be a path or dataset name string")
        options = {key: payload[key] for key in _SPEC_KEYS if key in payload}
        algo_params = options.pop("algo_params", ())
        try:
            spec = make_job(algo, source, k, algo_params=algo_params,
                            **options)
            validate_spec(spec)
        except (ReproError, TypeError, ValueError) as exc:
            raise SubmitError(f"invalid job spec: {exc}") from exc
        return spec, source

    async def submit(self, payload: dict[str, Any]) -> tuple[Job, bool]:
        """Submit a job; returns ``(job, created)``.

        ``created`` is ``False`` when the submit deduplicated onto an
        existing in-flight or completed job with the same cache key.
        A job that previously failed or was cancelled is resubmitted
        fresh under the same id (clean recompute).
        """
        spec, source = self._build_spec(payload)
        try:
            digest = await self._loop.run_in_executor(
                None, require_input_digest, spec, source
            )
        except UnreadableInputError as exc:
            raise SubmitError(str(exc)) from exc
        key = self.store.cache_key(spec, digest)
        job_id = key[:16]
        existing = self.jobs.get(job_id)
        if existing is not None and (
            existing.state not in (JobState.FAILED, JobState.CANCELLED)
        ):
            existing.submits += 1
            existing.events.append({
                "event": "dedup", "submits": existing.submits,
                "state": existing.state,
            })
            return existing, False
        if self._draining:
            raise QueueFullError("service is shutting down")
        job = Job(
            id=job_id, key=key, spec=spec, source=source,
            events=EventLog(self._loop),
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            raise QueueFullError(
                f"job queue is full ({self._queue.maxsize} pending)"
            ) from None
        self.jobs[job_id] = job
        job.events.append({"event": "state", "state": JobState.QUEUED})
        return job, True

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the background runner task."""
        if self._runner is None:
            self._runner = self._loop.create_task(self._run_forever())

    async def _run_forever(self) -> None:
        while True:
            job = await self._queue.get()
            if job.state != JobState.QUEUED:
                continue  # cancelled while pending
            job.state = JobState.RUNNING
            job.events.append({"event": "state", "state": JobState.RUNNING})
            try:
                await self._loop.run_in_executor(
                    self._executor, self._execute, job
                )
            except asyncio.CancelledError:
                raise
            finally:
                job.events.close()

    def _execute(self, job: Job) -> None:
        """Run one job on the runner thread (never raises)."""
        def forward(record: dict[str, Any]) -> None:
            """Hop a trace span onto the loop as a progress event."""
            event = progress_event(record)
            if event is not None:
                job.events.append_threadsafe(event)

        bridge = SpanEventBridge(forward)
        previous = set_tracer(bridge)
        try:
            result = run_job(
                job.spec, job.source, store=self.store,
                cancel=job.cancel_event,
            )
        except JobCancelledError as exc:
            job.state = JobState.CANCELLED
            job.error = str(exc)
            job.events.append_threadsafe(
                {"event": "state", "state": JobState.CANCELLED}
            )
        except BaseException as exc:  # noqa: BLE001 — runner must survive
            job.state = JobState.FAILED
            job.error = f"{type(exc).__name__}: {exc}"
            job.events.append_threadsafe(
                {"event": "state", "state": JobState.FAILED,
                 "error": job.error}
            )
        else:
            self.executions += 1
            job.summary = _summarize(result)
            job.state = JobState.SUCCEEDED
            job.events.append_threadsafe({
                "event": "state", "state": JobState.SUCCEEDED,
                "cache_hit": result.cache_hit,
                "replication_factor": result.replication_factor,
                "edge_balance": result.edge_balance,
            })
        finally:
            job.finished_at = time.time()
            set_tracer(previous)

    def fail_lost_result(self, job: Job, exc: Exception) -> str:
        """Fail a succeeded job whose stored result is gone; return why.

        A lookup calls this (on the event loop) when the store holds no
        valid entry for the job's key: it was deleted, or it was torn
        and is now quarantined.  The lookup answers 409 with the
        returned error, and, as for any failed job, the next submit of
        the spec runs it again under the same id.
        """
        if job.state == JobState.SUCCEEDED:
            job.state = JobState.FAILED
            job.summary = None
            job.error = f"{exc}; resubmit the job to recompute it"
            job.events.append({
                "event": "state", "state": JobState.FAILED,
                "error": job.error,
            })
        return job.error

    async def cancel(self, job_id: str) -> Job | None:
        """Cancel a queued or running job; ``None`` for unknown ids.

        A queued job flips straight to ``cancelled``; a running job's
        event is set and the runtime raises at the next stage boundary
        (the state flips when the runner observes it).
        """
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.state == JobState.QUEUED:
            job.state = JobState.CANCELLED
            job.error = "cancelled while queued"
            job.events.append(
                {"event": "state", "state": JobState.CANCELLED}
            )
            job.events.close()
        elif job.state == JobState.RUNNING:
            job.cancel_event.set()
        return job

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, cancel pending, stop the runner.

        Queued jobs flip to ``cancelled``; a running job's cancel event
        is set so the runtime stops at the next stage boundary; the
        runner thread is joined before returning.  A stage boundary
        holds no worker process or shared segment: a BSP run reaps its
        workers and unlinks its segment before its stage returns.
        """
        self._draining = True
        for job in self.jobs.values():
            if job.state == JobState.QUEUED:
                await self.cancel(job.id)
            elif job.state == JobState.RUNNING:
                job.cancel_event.set()
        if self._runner is not None:
            self._runner.cancel()
            try:
                await self._runner
            except asyncio.CancelledError:
                pass
            self._runner = None
        await self._loop.run_in_executor(None, self._executor.shutdown)
