"""Stateful property test: ``JobManager`` dedup, ids and executions.

A hypothesis rule-based state machine submits one of two specs on one
of two edge files, cancels jobs, drains the queue, and rewrites an
input in place with the same length (one edge's endpoints swapped).
After every step:

* a submit deduplicated exactly when a job that has not failed or been
  cancelled has the same spec and the input's current bytes,
* every job id is ``cache_key(spec, SHA-256 of the current bytes)[:16]``
  recomputed with :mod:`hashlib` alone,
* ``executions`` equals the number of succeeded jobs.

Each example gets its own event loop and store.  The racy window stays
at its shipped 2 s, so the rewritten files are re-hashed on every
submit: this pins the dedup semantics, not the memo (which
``tests/test_digest_memo.py`` covers).
"""

import asyncio
import contextlib
import hashlib
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.graph import write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.runtime import ArtifactStore, make_job
from repro.serve import JobManager, JobState

SPECS = (
    {"algo": "DBH", "k": 4, "chunk_size": 64},
    {"algo": "HDRF", "k": 4, "chunk_size": 64},
)


def _expected_id(payload: dict, path: Path) -> str:
    """The job id from the spec hash and the file's bytes, by hashlib."""
    spec = make_job(
        payload["algo"], str(path), payload["k"],
        chunk_size=payload["chunk_size"],
    )
    data = hashlib.sha256(b"path:" + path.read_bytes()).hexdigest()
    key = f"{spec.content_hash()}:{data}:fmt1".encode("utf-8")
    return hashlib.sha256(key).hexdigest()[:16]


class JobManagerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="jobmanager-"))
        self.loop = asyncio.new_event_loop()
        self.manager = JobManager(
            ArtifactStore(self.root / "cache"), queue_size=64, loop=self.loop
        )
        self.inputs = []
        for seed in (1, 2):
            path = self.root / f"in{seed}.bin"
            graph = chung_lu(120, mean_degree=4, exponent=2.2, seed=seed)
            write_binary_edgelist(graph, path)
            self.inputs.append(path)

    def _run(self, coro):
        return self.loop.run_until_complete(asyncio.wait_for(coro, 120))

    @rule(spec=st.integers(0, 1), which=st.integers(0, 1))
    def submit(self, spec, which):
        path = self.inputs[which]
        payload = dict(SPECS[spec], source=str(path))
        want = _expected_id(payload, path)
        existing = self.manager.jobs.get(want)
        dedup = existing is not None and existing.state not in (
            JobState.FAILED, JobState.CANCELLED
        )
        job, created = self._run(self.manager.submit(payload))
        assert job.id == want
        assert created is not dedup
        assert self.manager.jobs[want] is job
        if dedup:
            assert job is existing

    @rule(data=st.data())
    def cancel(self, data):
        if not self.manager.jobs:
            return
        job_id = data.draw(st.sampled_from(sorted(self.manager.jobs)))
        job = self.manager.jobs[job_id]
        was = job.state
        self._run(self.manager.cancel(job_id))
        # The runner only runs inside drain, so no job is running here.
        assert job.state == (
            JobState.CANCELLED if was == JobState.QUEUED else was
        )

    @rule()
    def drain(self):
        async def drain():
            await self.manager.start()
            while not all(
                job.events.closed for job in self.manager.jobs.values()
            ):
                await asyncio.sleep(0.005)
            runner, self.manager._runner = self.manager._runner, None
            runner.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await runner

        self._run(drain())
        assert all(
            job.state in JobState.TERMINAL
            for job in self.manager.jobs.values()
        )

    @rule(which=st.integers(0, 1), edge=st.integers(0, 10_000))
    def rewrite_in_place(self, which, edge):
        path = self.inputs[which]
        size = path.stat().st_size
        edge %= size // 8
        with open(path, "r+b") as handle:
            handle.seek(8 * edge)
            pair = handle.read(8)
            handle.seek(8 * edge)
            handle.write(pair[4:] + pair[:4])
        assert path.stat().st_size == size

    @invariant()
    def executions_equal_succeeded_jobs(self):
        succeeded = sum(
            job.state == JobState.SUCCEEDED
            for job in self.manager.jobs.values()
        )
        assert self.manager.executions == succeeded

    def teardown(self):
        try:
            self._run(self.manager.shutdown())
        finally:
            self.loop.close()
            shutil.rmtree(self.root, ignore_errors=True)


TestJobManager = JobManagerMachine.TestCase
TestJobManager.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)
