"""Multi-worker shard-parallel partitioning: BSP on real OS processes.

The paper closes with "we aim to further improve the performance of HEP
by focusing on parallelism and distribution".
:mod:`repro.parallel.bsp_streaming` established the *semantics* of that
direction — a bulk-synchronous streaming schedule — in one process;
this module executes the same schedule over ``N`` *lanes* (one
worker's share of the edge stream: its own shard files from a
:mod:`repro.stream.shard` manifest, its own slice of a flat edge file,
or its own h2h spill segment), each streamed by its own OS process, so
wall-clock parallelism is real rather than simulated.

Architecture
------------

One function runs a BSP run from start to finish:
:func:`run_bsp_shared` creates one
:class:`~repro.parallel.shm.SharedState` segment for the run's state,
forks workers ``1 … N−1`` with their jobs as their process arguments
(none at ``N = 1``), streams worker 0's lane itself, drives the
supersteps, and reaps the workers and unlinks the segment in one
``finally``.  A forked worker runs its job once and exits.

* **Lanes** (:class:`_Lane`) are scored one way on both sides.  Per
  superstep a lane scores its batch against the published
  replica/load snapshot with the in-process schedule's own kernel,
  split in its degree-only half
  (:func:`~repro.parallel.kernel.batch_coefficients`) and its snapshot
  half (:func:`~repro.parallel.kernel.score_on_snapshot`), hands the
  batch on, and only then reads its next batch and computes that
  batch's coefficients.
* **Forked workers** (:func:`_stream_shared_job`) map the segment,
  write each scored batch to their scratch lane of it, and block for
  ``COMMIT`` after the read-ahead.
* **The coordinator** (:class:`StateService` inside
  :func:`run_bsp_shared`) owns the live state.  Each superstep it
  scores worker 0's batch in process, then receives the other lanes,
  and merges all of them in worker order — replica marks OR-ed, loads
  summed — exactly as :func:`~repro.parallel.bsp_streaming.
  bsp_hdrf_stream` specifies.  It commits the merged delta to the
  double-buffered snapshot and releases the workers with a ``COMMIT``
  control frame.  While they score, it replays the delta into the
  other buffer, takes the published loads into its live state, and
  scores its own next batch.
* **The capacity fast path**: when no partition can reach capacity
  within one superstep (:func:`~repro.parallel.kernel.
  superstep_is_safe` — a pure function of superstep-start loads, so
  every lane and the coordinator agree without communicating),
  placements are pure argmaxes and lanes carry only ``(eid, u, v) +
  p``.  Near the balance bound lanes carry full score matrices and the
  coordinator places edge by edge under the live capacity mask
  (:func:`~repro.parallel.kernel.place_batch_serialized`).  Both
  branches are bit-identical to the in-process schedule — the
  equivalence property ``tests/test_stream_workers.py`` pins.

Pipes carry only control frames, framed with the record files' frame
header (:data:`~repro.stream.records.FRAME`: ``<u4 payload_bytes,
<u4 record_count``) behind a one-byte tag.  A worker's last frame,
``DONE``, carries its timings and its drained trace records.

Failure handling: a lane that fails mid-superstep (a killed or OOMed
worker, or a poisoned shard in any lane, the coordinator's included)
surfaces as a single :class:`~repro.errors.WorkerFailureError` naming
the worker and its shard/segment; every worker process is joined or
terminated (no orphans) and the segment is unlinked before the error
propagates.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, WorkerFailureError
from repro.obs.tracer import get_tracer, install_collecting_tracer
from repro.parallel.kernel import (
    batch_coefficients,
    contiguous_streams,
    place_batch_serialized,
    score_on_snapshot,
    shard_round_robin_streams,
    superstep_is_safe,
)
from repro.parallel.shm import SharedState
from repro.partition.state import StreamingState
from repro.stream.reader import (
    BINARY_SUFFIXES,
    DEFAULT_CHUNK_SIZE,
    BinaryFileEdgeSource,
    path_format,
    require_edge_format,
)
from repro.stream.shard import (
    EdgeSegment,
    iter_segments,
    manifest_segments,
    read_shard_manifest,
)
from repro.stream.records import FRAME, SPILL_TRIPLES
from repro.stream.spill import SpillFile

__all__ = [
    "StateService",
    "MultiWorkerReport",
    "WorkerTimings",
    "check_worker_input",
    "live_pool_health",
    "plan_worker_segments",
    "run_bsp_shared",
    "split_spill_round_robin",
    "DEFAULT_WORKER_BATCH",
    "DEFAULT_WORKER_TIMEOUT",
]

#: per-worker edges scored per superstep (matches the in-process
#: ``bsp_hdrf_stream`` default, so ``--workers N`` compares one-to-one)
DEFAULT_WORKER_BATCH = 8

#: seconds the coordinator waits on a silent worker before declaring it hung
DEFAULT_WORKER_TIMEOUT = 120.0

#: seconds a worker gets to exit on its own before it is terminated
_REAP_GRACE_S = 2.0

# message tags (one byte, prepended to the frame header)
_MSG_BATCH = b"B"     # worker -> coord: lane holds partitions (fast path)
_MSG_SCORES = b"S"    # worker -> coord: lane holds scores (near capacity)
_MSG_DONE = b"D"      # worker -> coord: stream exhausted; pickled
                      # ((busy_s, wait_s, send_s), trace records)
_MSG_ERROR = b"E"     # worker -> coord: pickled (type name, message)
_MSG_COMMIT = b"K"    # coord -> worker: barrier done; count = published index


def _iter_batches(
    segments: Sequence[EdgeSegment], batch: int, chunk_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Re-slice a worker's segments into ``(us, vs, eids)`` batches.

    Exactly ``batch`` edges per emission (the final one may be short),
    crossing segment boundaries — the worker-process equivalent of
    ``streams[w][cursor : cursor + batch]`` in the in-process schedule.
    """
    for pairs, eids in iter_segments(segments, batch, chunk_size):
        yield pairs[:, 0], pairs[:, 1], eids


# -- wire format ------------------------------------------------------------


def _pack_message(tag: bytes, count: int, *blobs: bytes) -> bytes:
    """Frame a message: tag byte + ``FRAME`` header + payload."""
    payload = b"".join(blobs)
    return tag + FRAME.pack(len(payload), count) + payload


def _unpack_message(blob: bytes) -> tuple[bytes, int, memoryview]:
    """Split a framed message into (tag, record count, payload view)."""
    tag = blob[:1]
    payload_bytes, count = FRAME.unpack_from(blob, 1)
    payload = memoryview(blob)[1 + FRAME.size :]
    if len(payload) != payload_bytes:
        raise WorkerFailureError(
            f"corrupt worker message: frame declares {payload_bytes} "
            f"payload bytes, got {len(payload)}"
        )
    return tag, count, payload


# -- lanes ------------------------------------------------------------------


class _Lane:
    """One lane of a BSP run: its batches, scored one per superstep.

    A forked worker streams its own lane through this class and the
    coordinator worker 0's, so a batch is scored one way on both sides.
    The lane holds its next batch and that batch's
    :func:`~repro.parallel.kernel.batch_coefficients` (the degree-only
    half of the score) from one :meth:`step` to the next, and times
    itself: ``read_s`` decoding batches, ``score_s`` scoring them, and
    ``edges`` scored.
    """

    def __init__(
        self,
        segments: Sequence[EdgeSegment],
        degrees: np.ndarray,
        *,
        workers: int,
        batch: int,
        capacity: int,
        lam: float,
        eps: float,
        chunk_size: int,
    ) -> None:
        """Open the lane's segments and read its first batch ahead."""
        self._batches = _iter_batches(segments, batch, chunk_size)
        self._degrees = degrees
        self._limits = (workers, batch, capacity)
        self._weights = (lam, eps)
        self.read_s = self.score_s = 0.0
        self.edges = 0
        self._ahead = None
        self._held: Exception | None = None
        self._read_ahead()

    @property
    def done(self) -> bool:
        """Whether every batch is scored (a held error is not done)."""
        return self._ahead is None and self._held is None

    def _read_ahead(self) -> None:
        """Read the next batch and its coefficients; hold an error."""
        perf = time.perf_counter
        t0 = perf()
        try:
            step = next(self._batches, None)
            t1 = perf()
            if step is not None:
                us, vs, _ = step
                step = step, batch_coefficients(self._degrees, us, vs)
        except Exception as exc:  # noqa: BLE001 — the next step raises it
            self._ahead, self._held = None, exc
            return
        self.read_s += t1 - t0
        self.score_s += perf() - t1
        self._ahead = step

    def step(
        self, replicas: np.ndarray, loads: np.ndarray, emit=None
    ) -> tuple:
        """Score the batch in hand on a snapshot, emit it, read ahead.

        Returns ``(eids, us, vs, ps, scores)``: the argmax partitions
        when :func:`~repro.parallel.kernel.superstep_is_safe` holds on
        the snapshot ``loads`` (``scores`` is ``None``), else the
        ``count × k`` score matrix (``ps`` is ``None``).  ``emit``, if
        given, gets the same five values before the read-ahead, so a
        worker's lane is on its way while the next batch decodes.  An
        error from the read-ahead is held and raised by the next call,
        so a worker raises it only once the ``COMMIT`` it is owed has
        arrived and the coordinator receives ``ERROR`` in place of the
        next lane.
        """
        if self._held is not None:
            raise self._held
        (us, vs, eids), (coeff_u, coeff_v) = self._ahead
        t0 = time.perf_counter()
        scores = score_on_snapshot(
            replicas, loads, us, vs, coeff_u, coeff_v, *self._weights
        )
        ps = None
        if superstep_is_safe(loads, *self._limits):
            ps, scores = np.argmax(scores, axis=1), None
        self.score_s += time.perf_counter() - t0
        if emit is not None:
            emit(eids, us, vs, ps, scores)
        self.edges += us.shape[0]
        self._read_ahead()
        return eids, us, vs, ps, scores

    def close(self) -> None:
        """Close the segment files a stopped lane still holds open."""
        self._batches.close()


# -- workers ----------------------------------------------------------------


def _claim_pipe(worker_id: int, pipes: dict):
    """Keep worker ``worker_id``'s child pipe end; close every other end.

    Closing the inherited ends that are not ours keeps EOF detection and
    fd hygiene intact after the fork.
    """
    conn = pipes[worker_id][1]
    for w, (parent_end, child_end) in pipes.items():
        try:
            parent_end.close()
            if w != worker_id:
                child_end.close()
        except OSError:
            pass
    return conn


def _worker_main(worker_id: int, pipes: dict, trace: bool, job: dict) -> None:
    """Entry point of one forked worker: run its BSP job once, then exit.

    ``job`` is :func:`_stream_shared_job`'s keyword arguments, handed
    over as the process arguments.  An exception is forwarded as one
    ``ERROR`` frame; the process exits either way.
    """
    conn = _claim_pipe(worker_id, pipes)
    tracer = install_collecting_tracer(trace)
    try:
        _stream_shared_job(worker_id, conn, tracer, **job)
    except BaseException as exc:  # noqa: BLE001 — forwarded, not hidden
        try:
            conn.send_bytes(
                _pack_message(
                    _MSG_ERROR, 0,
                    pickle.dumps((type(exc).__name__, str(exc))),
                )
            )
        except OSError:
            pass  # coordinator already gone; exit quietly
    finally:
        conn.close()


def _stream_shared_job(
    worker_id: int,
    conn,
    tracer,
    *,
    segments: Sequence[EdgeSegment],
    shm_name: str,
    num_vertices: int,
    k: int,
    capacity: int,
    workers: int,
    batch: int,
    lam: float,
    eps: float,
    chunk_size: int,
) -> None:
    """One forked worker's half of a shared-memory BSP run.

    The worker maps the coordinator's
    :class:`~repro.parallel.shm.SharedState` segment and streams its
    :class:`_Lane` against the published snapshot each superstep — the
    commit frame's count field names the buffer that is current.  Each
    scored batch is written to this worker's scratch lane of the
    segment and announced by an empty ``BATCH``/``SCORES`` control
    frame; the lane then reads its next batch ahead, and only then does
    the worker block for ``COMMIT``.  The last frame, ``DONE``, carries
    the worker's busy/wait/send seconds and the records ``tracer``
    drained.
    """
    perf = time.perf_counter
    shared = lane = None
    try:
        with tracer.span("shm_attach", worker=worker_id) as span:
            shared = SharedState.attach(
                shm_name, num_vertices, k, workers, batch
            )
            span.add("shm_bytes", shared.nbytes)
        published = 0
        encode_s = send_s = wait_s = 0.0
        frames = piped = 0

        def send_lane(eids, us, vs, ps, scores):
            """Write a scored batch to this worker's lane and announce it."""
            nonlocal encode_s, send_s, piped
            # Lane writes are this transport's encode step.
            t0 = perf()
            shared.write_batch(worker_id, eids, us, vs, ps=ps, scores=scores)
            tag = _MSG_BATCH if scores is None else _MSG_SCORES
            message = _pack_message(tag, us.shape[0])
            t1 = perf()
            conn.send_bytes(message)
            encode_s += t1 - t0
            send_s += perf() - t1
            piped += len(message)

        with tracer.span(
            "worker_stream", worker=worker_id, protocol="shm"
        ) as span:
            lane = _Lane(
                segments, shared.degrees, workers=workers, batch=batch,
                capacity=capacity, lam=lam, eps=eps, chunk_size=chunk_size,
            )
            while not lane.done:
                lane.step(*shared.snapshot(published), send_lane)
                t0 = perf()
                blob = conn.recv_bytes()
                wait_s += perf() - t0
                tag, count, _ = _unpack_message(blob)
                if tag != _MSG_COMMIT:
                    raise WorkerFailureError(
                        f"worker {worker_id}: expected a commit, got {tag!r}"
                    )
                published = count
                frames += 1
                piped += len(blob)
            busy_s = lane.read_s + lane.score_s
            for name, value in (
                ("busy_s", busy_s), ("read_s", lane.read_s),
                ("score_s", lane.score_s), ("encode_s", encode_s),
                ("send_s", send_s), ("wait_s", wait_s),
                ("edges_scanned", lane.edges), ("frames_sent", frames),
                ("bytes_piped", piped),
            ):
                span.add(name, value)
        done = ((busy_s, wait_s, send_s), tracer.drain())
        conn.send_bytes(_pack_message(_MSG_DONE, 0, pickle.dumps(done)))
    finally:
        # Drop the lane (it holds the segment's degree view) before
        # unmapping so the segment closes without pinned-buffer noise;
        # the name is the coordinator's.
        if lane is not None:
            lane.close()
            lane = None
        if shared is not None:
            shared.close()


# -- coordinator ------------------------------------------------------------


@dataclass(frozen=True)
class WorkerTimings:
    """Where one BSP run's seconds went, per worker and on the coordinator.

    Lanes always self-time (no ``--trace`` needed): ``busy_s`` is
    scoring + reading, ``wait_s`` is barrier time blocked on the
    coordinator's commit frame, ``send_s`` is control-frame send time.
    Worker 0's lane is the coordinator's own, so ``busy_s[0]`` is
    coordinator time and ``wait_s[0]`` and ``send_s[0]`` are 0.0: it
    neither waits for a commit frame nor sends a lane frame.  The
    coordinator contributes its own split: time blocked waiting on the
    forked workers' frames, merge/commit time, and commit-frame send
    time.
    """

    busy_s: tuple[float, ...]
    wait_s: tuple[float, ...]
    send_s: tuple[float, ...]
    coordinator_recv_s: float
    coordinator_merge_s: float
    coordinator_send_s: float

    @property
    def max_busy_s(self) -> float:
        """Busy seconds of the slowest worker (the critical path)."""
        return max(self.busy_s, default=0.0)

    @property
    def mean_busy_s(self) -> float:
        """Mean busy seconds across workers."""
        return sum(self.busy_s) / len(self.busy_s) if self.busy_s else 0.0

    @property
    def skew(self) -> float:
        """Slowest worker over mean busy time (1.0 = perfectly even)."""
        mean = self.mean_busy_s
        return self.max_busy_s / mean if mean > 0 else 1.0


@dataclass(frozen=True)
class MultiWorkerReport:
    """What one multi-process BSP run did (the schedule's shape)."""

    workers: int
    batch: int
    supersteps: int
    edges_streamed: int
    fast_supersteps: int
    slow_supersteps: int
    timings: WorkerTimings | None = None

    @property
    def modeled_speedup(self) -> float:
        """Sequential edge-rounds over BSP supersteps (ideal network)."""
        if self.supersteps == 0:
            return 1.0
        return self.edges_streamed / (self.supersteps * self.batch)


class StateService:
    """Coordinator side of the shared state: live merge + protocol checks.

    Owns the single live :class:`~repro.partition.state.StreamingState`.
    Lanes never mutate shared state — they propose placements (fast
    path) or scores (near capacity), and this service is the serialized
    owner that commits them, worker 0's lane (streamed by the
    coordinator itself) included.  Near capacity it places every batch edge
    by edge into the live state, in worker order, exactly as the
    in-process schedule does.  In a fast superstep it only records the
    placements; :func:`run_bsp_shared` commits them to the shared
    snapshot and copies the published loads back into the live state.
    """

    def __init__(
        self,
        state: StreamingState,
        parts: np.ndarray,
        workers: int,
        batch: int,
    ) -> None:
        self.state = state
        self.parts = parts
        self.workers = workers
        self.batch = batch
        self.edges_streamed = 0

    def begin_superstep(self) -> bool:
        """Compute the fast-path predicate from superstep-start loads."""
        return superstep_is_safe(
            self.state.loads, self.workers, self.batch, self.state.capacity
        )

    def merge_arrays(
        self,
        worker_id: int,
        tag: bytes,
        eids: np.ndarray,
        us: np.ndarray,
        vs: np.ndarray,
        extra: np.ndarray,
        safe: bool,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Commit one worker's batch; returns ``(us, vs, ps)`` for the delta.

        ``extra`` is the chosen-partition vector (:data:`_MSG_BATCH`) or
        the ``count × k`` score matrix (:data:`_MSG_SCORES`): views of a
        forked worker's shared-memory lane, or worker 0's arrays, which
        the coordinator scored itself.  Only the slow path writes the
        live state here.
        """
        if tag == _MSG_BATCH:
            if not safe:
                raise WorkerFailureError(
                    f"protocol divergence: worker {worker_id} took the "
                    f"fast path in a near-capacity superstep"
                )
            ps = extra
        else:
            if safe:
                raise WorkerFailureError(
                    f"protocol divergence: worker {worker_id} sent scores "
                    f"in a safe superstep"
                )
            ps = place_batch_serialized(self.state, us, vs, extra)
        self.parts[eids] = ps
        self.edges_streamed += eids.shape[0]
        return us, vs, ps


#: the worker groups of the BSP runs in flight, for service health checks
_LIVE_GROUPS: "set[_WorkerGroup]" = set()


def live_pool_health() -> list[dict]:
    """Health snapshots of the forked workers of every BSP run in flight.

    The serve layer's ``/healthz`` endpoint surfaces this: an idle
    service reports none; during a run it reports that run's forked
    workers (``1 … N−1``), every one alive.  A one-lane run forks no
    process, so it reports nothing either.
    """
    return [group.health() for group in list(_LIVE_GROUPS)]


class _WorkerGroup:
    """The forked worker processes of one BSP run and their pipes.

    Worker 0's lane is the coordinator's own, so a run of ``N`` lanes
    forks workers ``1 … N−1``; the processes, pipes and pollers are
    keyed by worker id.  Owns the fork, the liveness-watching receive
    loop and the single :class:`~repro.errors.WorkerFailureError`
    failure surface, whose message names the worker and its segments.
    :func:`run_bsp_shared` builds one per run and reaps it in its
    ``finally``.
    """

    def __init__(self, segments: Sequence[Sequence[EdgeSegment]]) -> None:
        """One lane per segment list; :meth:`fork` starts lanes 1 on."""
        self.segments = [list(segs) for segs in segments]
        methods = multiprocessing.get_all_start_methods()
        self.mp_context = "fork" if "fork" in methods else "spawn"
        self._procs: dict = {}
        self._conns: dict = {}
        # One registered select.poll object per pipe: Connection.poll
        # builds and closes a selector on every call.
        self._pollers: dict = {}
        # Always-on receive accounting (coordinator-side): seconds spent
        # blocked on worker frames, and frames/bytes drained.
        self.recv_wait_s = 0.0
        self.frames_recv = 0
        self.bytes_recv = 0

    @property
    def forked(self) -> list[int]:
        """The forked workers' ids, in worker order."""
        return list(self._procs)

    def fork(self, job: dict, trace: bool) -> None:
        """Start workers ``1 … N−1``, each with ``job`` plus its segments.

        With ``trace`` each worker collects its spans and ships them in
        its ``DONE`` frame.
        """
        ctx = multiprocessing.get_context(self.mp_context)
        pipes = {
            w: ctx.Pipe(duplex=True) for w in range(1, len(self.segments))
        }
        self._conns = {w: parent_end for w, (parent_end, _) in pipes.items()}
        try:
            for w in pipes:
                proc = ctx.Process(
                    target=_worker_main,
                    args=(w, pipes, trace, dict(job, segments=self.segments[w])),
                    name=f"repro-worker-{w}",
                    daemon=True,
                )
                proc.start()
                self._procs[w] = proc
        finally:
            for _, child_end in pipes.values():
                child_end.close()
        for w, conn in self._conns.items():
            poller = select.poll()
            poller.register(conn.fileno(), select.POLLIN)
            self._pollers[w] = poller
        if self._procs:
            _LIVE_GROUPS.add(self)

    def health(self) -> dict:
        """Liveness snapshot: forked worker count, their states and pids.

        ``healthy`` is true iff every forked worker is still alive.
        """
        procs = list(self._procs.values())
        alive = [proc.is_alive() for proc in procs]
        return {
            "pool": "bsp-shm",
            "workers": len(procs),
            "alive": alive,
            "pids": [proc.pid for proc in procs],
            "healthy": all(alive),
        }

    def reap(self) -> None:
        """Close the pipes and join every worker; end the stragglers.

        A worker that sent ``DONE`` exits on its own, and one blocked
        on its pipe exits at the EOF the close gives it.  A worker still
        running after :data:`_REAP_GRACE_S` is terminated, then killed.
        """
        _LIVE_GROUPS.discard(self)
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        deadline = time.monotonic() + _REAP_GRACE_S
        for proc in self._procs.values():
            proc.join(max(deadline - time.monotonic(), 0.0))
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def describe(self, w: int) -> str:
        """``worker w`` and the segments it streams, for messages."""
        segments = self.segments[w]
        if not segments:
            return f"worker {w} (no segments)"
        names = ", ".join(seg.describe() for seg in segments)
        return f"worker {w} (segments: {names})"

    def died(self, w: int) -> WorkerFailureError:
        """The error for worker ``w`` gone before finishing its stream.

        The pipe's EOF can reach the coordinator before the process is
        reaped, so the process is joined for at most
        :data:`_REAP_GRACE_S` before its exit code is read.
        """
        proc = self._procs[w]
        proc.join(_REAP_GRACE_S)
        return WorkerFailureError(
            f"{self.describe(w)} died mid-sweep "
            f"(exit code {proc.exitcode}) before finishing its stream"
        )

    def failed(self, w: int, exc_type: str, message: str) -> WorkerFailureError:
        """The error for lane ``w`` raising ``exc_type: message``."""
        return WorkerFailureError(
            f"{self.describe(w)} failed: {exc_type}: {message}"
        )

    def send(self, w: int, frame: bytes) -> None:
        """Send one control frame to worker ``w``."""
        try:
            self._conns[w].send_bytes(frame)
        except (BrokenPipeError, OSError):
            raise self.died(w) from None

    def recv(self, w: int) -> bytes:
        """Receive one message from worker ``w``, watching its liveness.

        Accounts the blocked time and drained frames/bytes into
        :attr:`recv_wait_s` / :attr:`frames_recv` / :attr:`bytes_recv`.
        """
        conn = self._conns[w]
        poller = self._pollers[w]
        proc = self._procs[w]
        started = time.perf_counter()
        deadline = time.monotonic() + DEFAULT_WORKER_TIMEOUT
        while True:
            try:
                if poller.poll(50):
                    return self._account_recv(conn.recv_bytes(), started)
            except (EOFError, OSError):
                raise self.died(w) from None
            if not proc.is_alive():
                # Drain a final message that raced with the exit.
                try:
                    if poller.poll(250):
                        return self._account_recv(conn.recv_bytes(), started)
                except (EOFError, OSError):
                    pass
                raise self.died(w)
            if time.monotonic() > deadline:
                raise WorkerFailureError(
                    f"{self.describe(w)} sent nothing for "
                    f"{DEFAULT_WORKER_TIMEOUT:.0f}s; presumed hung"
                )

    def _account_recv(self, blob: bytes, started: float) -> bytes:
        """Fold one received frame into the receive counters."""
        self.recv_wait_s += time.perf_counter() - started
        self.frames_recv += 1
        self.bytes_recv += len(blob)
        return blob

    def raise_error(self, w: int, payload: memoryview) -> None:
        """Raise worker ``w``'s forwarded exception as one failure."""
        try:
            exc_type, message = pickle.loads(payload)
        except Exception:  # noqa: BLE001 — corrupt error payloads
            exc_type, message = "unknown error", "<undecodable payload>"
        raise self.failed(w, exc_type, message)


def run_bsp_shared(
    segments: Sequence[Sequence[EdgeSegment]],
    state: StreamingState,
    parts: np.ndarray,
    batch: int = DEFAULT_WORKER_BATCH,
    lam: float = 1.1,
    eps: float = 1.0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> MultiWorkerReport:
    """Run one shared-memory BSP streaming run over one lane per segment list.

    Bit-identical to the in-process ``bsp_hdrf_stream`` for the same
    ``segments``/``batch``: the schedule is ``len(segments)`` streams
    wide, one lane each (a lane with no segments is done at once),
    merges happen in worker order, and the fast/slow path split is the
    same deterministic predicate.

    The run creates one :class:`~repro.parallel.shm.SharedState`
    segment and forks workers ``1 … N−1`` with their jobs as their
    process arguments.  Worker 0's lane is streamed here, opened only
    after the fork so no worker inherits its files: each superstep the
    coordinator scores its batch against the published snapshot through
    the same :class:`_Lane` the workers use, merges it, then receives
    and merges the forked lanes in worker order.  Forked batches land
    in per-worker scratch lanes of the segment and the merged delta is
    never broadcast.  Between the last lane and the ``COMMIT`` frame
    the coordinator does only what the workers need: the protocol
    checks, the ``parts`` writes, one copy of the merged delta out of
    the lanes, and its :meth:`~repro.parallel.shm.SharedState.commit`
    into the staging buffer with the flip (near capacity, also the
    serialized placement).  The frame names the published buffer.
    While the workers score the next superstep, the coordinator replays
    the delta into the other buffer
    (:meth:`~repro.parallel.shm.SharedState.catch_up`), copies the
    ``k`` published loads into the live state and scores its own next
    batch; the live replica matrix is copied from the published buffer
    once, when the run ends.  Workers apply no deltas, and pipes carry
    only control frames.  A worker's ``DONE`` frame carries its timings
    and trace records, which are adopted under the ``pool_run`` span as
    it arrives; the coordinator's lane records its ``worker_stream``
    span there when the run ends.

    Mutates ``state`` and ``parts``.  One ``finally`` reaps the workers
    and unlinks the segment on every exit path.  Lane failures, the
    coordinator's own included, surface as one
    :class:`~repro.errors.WorkerFailureError`.
    """
    if batch < 1:
        raise ConfigurationError(f"batch must be >= 1, got {batch}")
    workers = len(segments)
    if workers < 1:
        raise ConfigurationError("run_bsp_shared needs >= 1 segment list")
    tracer = get_tracer()
    perf = time.perf_counter
    service = StateService(state, parts, workers, batch)
    supersteps = fast = slow = 0
    merge_s = commit_s = encode_s = send_s = 0.0
    frames_sent = bytes_sent = 0
    first_commit_at = 0.0
    worker_timings: list = [None] * workers
    group = _WorkerGroup(segments)
    lane_args = dict(
        workers=workers, batch=batch, capacity=state.capacity,
        lam=lam, eps=eps, chunk_size=chunk_size,
    )
    # The segment is created *inside* the try so an interrupt landing
    # anywhere after creation — mid-fork included — still reaches the
    # finally below.
    shared = lane = None
    try:
        with tracer.span(
            "shm_attach", side="coordinator", workers=workers, batch=batch
        ) as span:
            shared = SharedState.create(
                state.num_vertices, state.k, workers, batch,
                state.degrees, state.replicas, state.loads,
            )
            span.add("shm_bytes", shared.nbytes)
        with tracer.span(
            "pool_spawn", forked=workers - 1, mp_context=group.mp_context
        ):
            group.fork(
                dict(
                    lane_args, shm_name=shared.name,
                    num_vertices=state.num_vertices, k=state.k,
                ),
                trace=tracer.enabled,
            )
        with tracer.span(
            "pool_run", pool="bsp-shm", workers=workers, batch=batch,
        ) as span:
            lane_started = time.time()
            lane_t0 = perf()
            lane = _Lane(group.segments[0], state.degrees, **lane_args)
            active = group.forked
            published = shared.published
            # One running clock ``t``: each lap charges the seconds since
            # the last one to a bucket, so the loop is timed end to end
            # (a recv's blocked wait is the group's own count).
            t = perf()
            lane_busy_s = lane_s = t - lane_t0
            while active or not lane.done:
                safe = service.begin_superstep()
                delta_us: list[np.ndarray] = []
                delta_vs: list[np.ndarray] = []
                delta_ps: list[np.ndarray] = []
                senders: list[int] = []
                if not lane.done:
                    now = perf()
                    merge_s += now - t
                    try:
                        eids, us, vs, ps, scores = lane.step(
                            *shared.snapshot(published)
                        )
                    except Exception as exc:  # noqa: BLE001 — re-raised
                        raise group.failed(
                            0, type(exc).__name__, str(exc)
                        ) from exc
                    t = perf()
                    lane_busy_s += t - now
                    lane_s = t - lane_t0
                    us, vs, ps = service.merge_arrays(
                        0, _MSG_BATCH if scores is None else _MSG_SCORES,
                        eids, us, vs, ps if scores is None else scores, safe,
                    )
                    delta_us.append(us)
                    delta_vs.append(vs)
                    delta_ps.append(ps)
                for w in list(active):
                    merge_s += perf() - t
                    blob = group.recv(w)
                    t = perf()
                    tag, count, payload = _unpack_message(blob)
                    if tag == _MSG_DONE:
                        active.remove(w)
                        worker_timings[w], records = pickle.loads(payload)
                        tracer.adopt(records, worker=w)
                        continue
                    if tag == _MSG_ERROR:
                        group.raise_error(w, payload)
                    eids, us, vs, extra = shared.read_batch(
                        w, count, slow=tag == _MSG_SCORES
                    )
                    us, vs, ps = service.merge_arrays(
                        w, tag, eids, us, vs, extra, safe
                    )
                    delta_us.append(us)
                    delta_vs.append(vs)
                    delta_ps.append(ps)
                    senders.append(w)
                if not delta_us:
                    continue
                supersteps += 1
                if safe:
                    fast += 1
                else:
                    slow += 1
                if not first_commit_at:
                    first_commit_at = time.time()
                t0 = perf()
                merge_s += t0 - t
                # np.concatenate always copies, so the commit never
                # holds a lane view across the frame that lets workers
                # overwrite their lanes.
                published = shared.commit(
                    np.concatenate(delta_us),
                    np.concatenate(delta_vs),
                    np.concatenate(delta_ps),
                )
                t1 = perf()
                frame = _pack_message(_MSG_COMMIT, published)
                t2 = perf()
                for w in senders:
                    group.send(w, frame)
                t3 = perf()
                frames_sent += len(senders)
                bytes_sent += len(frame) * len(senders)
                # The workers now score the next superstep; what follows
                # reads the committed delta copy, never a lane.
                shared.catch_up()
                # The next predicate reads the live loads (a fast
                # superstep left them to the snapshot).
                state.loads[...] = shared.snapshot(published)[1]
                t = perf()
                commit_s += (t1 - t0) + (t - t3)
                encode_s += t2 - t1
                send_s += t3 - t2
            # Fast supersteps never write the live replica matrix, and
            # the slow path reads only the live loads.
            state.replicas[...] = shared.snapshot(published)[0]
            worker_timings[0] = (lane_busy_s, 0.0, 0.0)
            if tracer.enabled:
                # Hand-built records, adopted under pool_run: an open
                # span here would parent the workers' adopted spans.
                # One aggregate commit span (a per-superstep span per
                # commit would dwarf the trace); dur_s is the measured
                # total.
                records = [{
                    "type": "span", "id": 0, "parent": None,
                    "name": "worker_stream", "start": lane_started,
                    "dur_s": lane_s,
                    "attrs": {
                        "worker": 0, "protocol": "shm",
                        "side": "coordinator",
                    },
                    "counters": {
                        "busy_s": lane_busy_s, "read_s": lane.read_s,
                        "score_s": lane.score_s,
                        "edges_scanned": lane.edges,
                    },
                }]
                if supersteps:
                    records.append({
                        "type": "span", "id": 1, "parent": None,
                        "name": "superstep_commit",
                        "start": first_commit_at, "dur_s": commit_s,
                        "attrs": {"side": "coordinator"},
                        "counters": {"supersteps": supersteps},
                    })
                tracer.adopt(records)
            for name, value in (
                ("recv_wait_s", group.recv_wait_s),
                ("merge_s", merge_s), ("commit_s", commit_s),
                ("encode_s", encode_s), ("send_s", send_s),
                ("supersteps", supersteps),
                ("frames_sent", group.frames_recv + frames_sent),
                ("bytes_piped", group.bytes_recv + bytes_sent),
            ):
                span.add(name, value)
    finally:
        # On the failure path the propagating traceback pins this frame;
        # null the lane views it may hold (the per-worker reads and the
        # fast-path delta lists) so the segment can unmap, and close the
        # coordinator lane's files.
        eids = us = vs = extra = None  # noqa: F841
        delta_us = delta_vs = delta_ps = None  # noqa: F841
        if lane is not None:
            lane.close()
        if shared is not None:
            shared.close()
            shared.unlink()
        group.reap()
    busy, wait, sent = zip(*worker_timings)
    return MultiWorkerReport(
        workers=workers,
        batch=batch,
        supersteps=supersteps,
        edges_streamed=service.edges_streamed,
        fast_supersteps=fast,
        slow_supersteps=slow,
        timings=WorkerTimings(
            busy_s=busy,
            wait_s=wait,
            send_s=sent,
            coordinator_recv_s=group.recv_wait_s,
            coordinator_merge_s=merge_s + commit_s,
            coordinator_send_s=send_s,
        ),
    )


# -- planning ---------------------------------------------------------------


def check_worker_input(path: "str | os.PathLike") -> None:
    """Raise unless ``path`` is an input workers can be dealt.

    Workers stream shard manifests or flat binary edge files, judged
    by suffix alone (:func:`~repro.stream.reader.path_format`), so
    :func:`~repro.runtime.api.validate_spec` refuses a text edge list
    for multi-worker HDRF before the job is hashed.
    """
    if path_format(path) == "text":
        raise ConfigurationError(
            f"{Path(path)}: multi-worker partitioning streams shard "
            f"manifests or flat binary edge files "
            f"({', '.join(BINARY_SUFFIXES)}); export one with "
            f"'datasets --export' or 'extsort --shards'"
        )


def plan_worker_segments(
    source: "str | os.PathLike",
    workers: int,
) -> tuple[list[list[EdgeSegment]], list[np.ndarray], int, int | None]:
    """Assign a sharded manifest (or flat edge file) to ``workers`` workers.

    Returns ``(segments_per_worker, eid_streams, num_edges,
    num_vertices)``.  For a manifest, shards are dealt round-robin —
    worker ``w`` streams shards ``w, w+N, ...`` in manifest order, so
    every shard file is read by exactly one process.  A flat binary
    edge file is *virtually* sharded into one contiguous range per
    worker.  ``eid_streams`` are the same ownership expressed as global
    edge-id arrays — feed them to
    :func:`~repro.parallel.bsp_streaming.bsp_hdrf_stream` to run the
    identical schedule in process (the equivalence oracle).
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    path = Path(source)
    if not path.exists():
        raise ConfigurationError(f"{path}: no such edge file or manifest")
    check_worker_input(path)
    if path_format(path) == "manifest":
        manifest = read_shard_manifest(path)
        shards = manifest_segments(manifest)
        segments = [shards[w::workers] for w in range(workers)]
        streams = shard_round_robin_streams(manifest.shard_edges, workers)
        return segments, streams, manifest.num_edges, manifest.num_vertices
    require_edge_format(path, "binary")
    num_edges = BinaryFileEdgeSource(path).num_edges
    streams = contiguous_streams(num_edges, workers)
    segments = [
        [
            EdgeSegment(
                path=str(path),
                count=int(stream.size),
                eid_start=int(stream[0]) if stream.size else 0,
                start_edge=int(stream[0]) if stream.size else 0,
            )
        ]
        if stream.size
        else []
        for stream in streams
    ]
    return segments, streams, num_edges, None


def split_spill_round_robin(
    spill: SpillFile,
    workers: int,
    out_dir: "str | os.PathLike",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    compression: str | None = None,
) -> list[list[EdgeSegment]]:
    """Deal a spill file's records round-robin into per-worker segments.

    Record ``j`` of the spill stream goes to worker ``j mod N`` — the
    exact ownership :func:`~repro.parallel.kernel.round_robin_streams`
    describes, so the multi-process phase two matches the in-process
    ``bsp_hdrf_stream(workers=N)`` schedule bit for bit.  Segment files
    land in ``out_dir`` (caller-owned temp state).
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    out_dir = Path(out_dir)
    writers = [
        SpillFile(
            path=out_dir / f"h2h-worker-{w:02d}.spill",
            delete=False,
            compression=compression,
        )
        for w in range(workers)
    ]
    try:
        position = 0
        for pairs, eids in spill.chunks(chunk_size):
            owner = (position + np.arange(pairs.shape[0])) % workers
            for w in range(workers):
                mask = owner == w
                if mask.any():
                    writers[w].append(pairs[mask], eids[mask])
            position += pairs.shape[0]
        for writer in writers:
            writer.sync()
        return [
            [
                EdgeSegment(
                    path=str(writer.path),
                    count=len(writer),
                    kind=SPILL_TRIPLES.name,
                    compression=compression,
                )
            ]
            if len(writer)
            else []
            for writer in writers
        ]
    finally:
        for writer in writers:
            writer.close()
