"""Multi-worker shard-parallel partitioning: BSP on real OS processes.

The paper closes with "we aim to further improve the performance of HEP
by focusing on parallelism and distribution".
:mod:`repro.parallel.bsp_streaming` established the *semantics* of that
direction — a bulk-synchronous streaming schedule — in one process;
this module executes the same schedule on ``N`` worker **processes**,
each streaming its own shard files from a
:mod:`repro.stream.shard` manifest (or its own slice of a flat edge
file, or its own h2h spill segment), so wall-clock parallelism is real
rather than simulated.

Architecture
------------

One transport carries all work: a warm :class:`PersistentWorkerPool`
runs pickled jobs, and a BSP run's state lives in one
:class:`~repro.parallel.shm.SharedState` segment.

* **Workers** (:func:`_stream_shared_job`) map the segment and read the
  published replica/load snapshot.  Per superstep a worker reads the
  next ``batch`` edges of its stream, scores them against the snapshot
  with a kernel bitwise equal to the in-process schedule's
  (:class:`~repro.parallel.kernel.FusedBatchScorer`), and writes the
  batch to its scratch lane of the segment.
* **The coordinator** (:class:`StateService` inside
  :func:`run_bsp_shared`) owns the live state.  It merges worker
  batches in worker order — replica marks OR-ed, loads summed — exactly
  as :func:`~repro.parallel.bsp_streaming.bsp_hdrf_stream` specifies,
  folds the merged delta into the double-buffered snapshot and releases
  the workers with a ``COMMIT`` control frame.
* **The capacity fast path**: when no partition can reach capacity
  within one superstep (:func:`~repro.parallel.kernel.
  superstep_is_safe` — a pure function of superstep-start loads, so
  workers and coordinator agree without communicating), placements are
  pure argmaxes and workers write only ``(eid, u, v) + p``.  Near the
  balance bound workers write full score matrices and the coordinator
  places edge by edge under the live capacity mask
  (:func:`~repro.parallel.kernel.place_batch_serialized`).  Both
  branches are bit-identical to the in-process schedule — the
  equivalence property ``tests/test_stream_workers.py`` pins.

Pipes carry only control frames, framed with the spill file's frame
encoding (:data:`~repro.stream.spill` ``_FRAME``: ``<u4 payload_bytes,
<u4 record_count``) behind a one-byte tag.

Failure handling: a worker that dies mid-superstep (killed, OOM, or a
poisoned shard) surfaces as a single
:class:`~repro.errors.WorkerFailureError` naming the worker and its
shard/segment; the pool terminates and joins every remaining process
(no orphans) and per-run temp state is removed.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, WorkerFailureError
from repro.obs.tracer import get_tracer, install_collecting_tracer
from repro.parallel.kernel import (
    FusedBatchScorer,
    apply_batch,
    contiguous_streams,
    place_batch_serialized,
    shard_round_robin_streams,
    superstep_is_safe,
)
from repro.parallel.shm import SharedState
from repro.partition.state import StreamingState
from repro.stream.reader import DEFAULT_CHUNK_SIZE
from repro.stream.shard import (
    is_manifest_path,
    read_flat_edge_blocks,
    read_framed_edge_blocks,
    read_shard_manifest,
)

# Control frames reuse the spill file's frame struct (repro.stream.spill).
from repro.stream.spill import _FRAME, SpillFile, read_spill_chunks

__all__ = [
    "EdgeSegment",
    "PersistentWorkerPool",
    "StateService",
    "MultiWorkerReport",
    "WorkerTimings",
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

# message tags (one byte, prepended to the spill-style frame)
_MSG_BATCH = b"B"     # worker -> coord: lane holds partitions (fast path)
_MSG_SCORES = b"S"    # worker -> coord: lane holds scores (near capacity)
_MSG_DONE = b"D"      # worker -> coord: stream exhausted (+ busy/wait/send f64s)
_MSG_ERROR = b"E"     # worker -> coord: pickled (type name, message)
_MSG_TRACE = b"T"     # worker -> coord: pickled trace records (after a job)
_MSG_JOB = b"J"       # coord -> worker: pickled (handler, kwargs) job
_MSG_SHUTDOWN = b"Q"  # coord -> worker: leave the job loop, exit cleanly
_MSG_COMMIT = b"K"    # coord -> worker: barrier done; count = published index

#: layout of the timing payload a worker attaches to its DONE message
_DONE_TIMINGS = np.dtype("<f8")
_DONE_TIMING_FIELDS = 3  # busy_s, wait_s, send_s


@dataclass(frozen=True)
class EdgeSegment:
    """One contiguous run of globally-identified edges a worker streams.

    ``kind`` selects the on-disk decoding:

    * ``"flat"`` — ``count`` flat ``<u4`` pairs starting at edge
      ``start_edge`` of ``path`` (a whole uncompressed shard, or a
      virtual shard of a single flat edge file); edge ids are
      ``eid_start + position``,
    * ``"framed"`` — a whole zlib-framed shard file; edge ids are
      ``eid_start + position``,
    * ``"spill"`` — spill-format ``(u, v, eid)`` triples (h2h segments
      written by :func:`split_spill_round_robin`); edge ids travel in
      the records and ``eid_start`` is unused.
    """

    path: str
    count: int
    eid_start: int = 0
    kind: str = "flat"
    start_edge: int = 0
    compression: str | None = None

    def describe(self) -> str:
        """Short human-readable form used in failure messages."""
        if self.kind == "flat" and self.start_edge:
            return (
                f"{self.path}[{self.start_edge}:"
                f"{self.start_edge + self.count}]"
            )
        return self.path


def _iter_segment(
    segment: EdgeSegment, chunk_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(pairs, eids)`` blocks of one segment, bounded by chunks."""
    if segment.kind == "flat":
        eid = segment.eid_start
        for pairs in read_flat_edge_blocks(
            segment.path, segment.count, chunk_size, segment.start_edge
        ):
            eids = np.arange(eid, eid + pairs.shape[0], dtype=np.int64)
            eid += pairs.shape[0]
            yield pairs, eids
    elif segment.kind == "framed":
        eid = segment.eid_start
        for pairs in read_framed_edge_blocks(
            segment.path, segment.count, segment.compression
        ):
            eids = np.arange(eid, eid + pairs.shape[0], dtype=np.int64)
            eid += pairs.shape[0]
            yield pairs, eids
    elif segment.kind == "spill":
        yield from read_spill_chunks(
            segment.path, segment.count, segment.compression, chunk_size
        )
    else:
        raise ConfigurationError(f"unknown segment kind {segment.kind!r}")


def _iter_batches(
    segments: Sequence[EdgeSegment], batch: int, chunk_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Re-slice a worker's segments into ``(us, vs, eids)`` batches.

    Exactly ``batch`` edges per emission (the final one may be short),
    crossing segment boundaries — the worker-process equivalent of
    ``streams[w][cursor : cursor + batch]`` in the in-process schedule.
    """
    pairs_buf: list[np.ndarray] = []
    eids_buf: list[np.ndarray] = []
    have = 0

    def _emit(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nonlocal have
        taken_p: list[np.ndarray] = []
        taken_e: list[np.ndarray] = []
        need = count
        while need:
            head_p, head_e = pairs_buf[0], eids_buf[0]
            if head_p.shape[0] <= need:
                taken_p.append(head_p)
                taken_e.append(head_e)
                pairs_buf.pop(0)
                eids_buf.pop(0)
                need -= head_p.shape[0]
            else:
                taken_p.append(head_p[:need])
                taken_e.append(head_e[:need])
                pairs_buf[0] = head_p[need:]
                eids_buf[0] = head_e[need:]
                need = 0
        have -= count
        pairs = taken_p[0] if len(taken_p) == 1 else np.vstack(taken_p)
        eids = taken_e[0] if len(taken_e) == 1 else np.concatenate(taken_e)
        return pairs[:, 0], pairs[:, 1], eids

    for segment in segments:
        for pairs, eids in _iter_segment(segment, chunk_size):
            if pairs.shape[0] == 0:
                continue
            pairs_buf.append(np.asarray(pairs, dtype=np.int64))
            eids_buf.append(np.asarray(eids, dtype=np.int64))
            have += pairs.shape[0]
            while have >= batch:
                yield _emit(batch)
    if have:
        yield _emit(have)


# -- wire format ------------------------------------------------------------


def _pack_message(tag: bytes, count: int, *blobs: bytes) -> bytes:
    """Frame a message: tag byte + spill ``_FRAME`` header + payload."""
    payload = b"".join(blobs)
    return tag + _FRAME.pack(len(payload), count) + payload


def _unpack_message(blob: bytes) -> tuple[bytes, int, memoryview]:
    """Split a framed message into (tag, record count, payload view)."""
    tag = blob[:1]
    payload_bytes, count = _FRAME.unpack_from(blob, 1)
    payload = memoryview(blob)[1 + _FRAME.size :]
    if len(payload) != payload_bytes:
        raise WorkerFailureError(
            f"corrupt worker message: frame declares {payload_bytes} "
            f"payload bytes, got {len(payload)}"
        )
    return tag, count, payload


# -- warm workers (job loop) ------------------------------------------------


def _claim_pipe(worker_id: int, pipes: list):
    """Keep worker ``worker_id``'s child pipe end; close every other end.

    Closing the inherited ends that are not ours keeps EOF detection and
    fd hygiene intact after the fork.
    """
    conn = pipes[worker_id][1]
    for i, (parent_end, child_end) in enumerate(pipes):
        try:
            parent_end.close()
            if i != worker_id:
                child_end.close()
        except OSError:
            pass
    return conn


@dataclass(frozen=True)
class _JobContext:
    """What a job handler receives from the warm worker's job loop."""

    worker_id: int
    conn: object           # this worker's pipe end to the coordinator
    tracer: object         # the worker-process tracer (may be the null one)


def _job_worker_main(worker_id: int, pipes: list, trace: bool = False) -> None:
    """Entry point of one warm worker: run pickled jobs until shutdown.

    The pool spawns these once and then :meth:`PersistentWorkerPool.
    submit`\\ s any number of jobs — a job is a pickled ``(handler,
    kwargs)`` pair, and the handler owns whatever pipe protocol it needs
    (BSP supersteps, one-shot count/cover sweeps, ...).

    After each successful job the worker ships its drained trace records
    (when tracing) so the coordinator can adopt them per job.  A failed
    job forwards one ``ERROR`` message and exits — protocol state after
    a mid-job exception is unknowable, so the process does not outlive
    it.
    """
    conn = _claim_pipe(worker_id, pipes)
    tracer = install_collecting_tracer(trace)
    context = _JobContext(worker_id, conn, tracer)
    try:
        while True:
            try:
                blob = conn.recv_bytes()
            except (EOFError, OSError):
                break  # coordinator dropped the pipe: quiet exit
            tag, _, payload = _unpack_message(blob)
            if tag == _MSG_SHUTDOWN:
                break
            if tag != _MSG_JOB:
                raise WorkerFailureError(
                    f"worker {worker_id}: expected a job frame, got {tag!r}"
                )
            handler, kwargs = pickle.loads(bytes(payload))
            handler(context, **kwargs)
            if trace:
                conn.send_bytes(
                    _pack_message(_MSG_TRACE, 0, pickle.dumps(tracer.drain()))
                )
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
    context: _JobContext,
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
    """One worker's half of a shared-memory BSP run (see run_bsp_shared).

    The worker maps the coordinator's
    :class:`~repro.parallel.shm.SharedState` segment and *reads* the
    published snapshot each superstep — the commit frame's count field
    names the buffer that is current.  Batches are written to this
    worker's scratch lane; the pipe carries only empty ``BATCH``/
    ``SCORES`` control frames.  Scoring runs through the fused
    :class:`~repro.parallel.kernel.FusedBatchScorer` (bitwise equal to
    the reference kernel).
    """
    conn = context.conn
    perf = time.perf_counter
    shared = None
    replicas = loads = degrees = None
    try:
        with context.tracer.span(
            "shm_attach", worker=context.worker_id
        ) as span:
            shared = SharedState.attach(
                shm_name, num_vertices, k, workers, batch
            )
            span.add("shm_bytes", shared.nbytes)
        scorer = FusedBatchScorer(k, batch, lam, eps)
        degrees = shared.degrees
        published = 0
        read_s = score_s = encode_s = send_s = wait_s = 0.0
        edges = frames = piped = 0
        with context.tracer.span(
            "worker_stream", worker=context.worker_id, protocol="shm"
        ) as span:
            batches = _iter_batches(segments, batch, chunk_size)
            while True:
                t0 = perf()
                step = next(batches, None)
                read_s += perf() - t0
                if step is None:
                    break
                us, vs, eids = step
                t0 = perf()
                replicas, loads = shared.snapshot(published)
                safe = superstep_is_safe(loads, workers, batch, capacity)
                scores = scorer.scores(replicas, loads, degrees, us, vs)
                score_s += perf() - t0
                # Lane writes are this transport's encode step.
                t0 = perf()
                if safe:
                    ps = np.argmax(scores, axis=1)
                    shared.write_batch(
                        context.worker_id, eids, us, vs, ps=ps
                    )
                    message = _pack_message(_MSG_BATCH, us.shape[0])
                else:
                    shared.write_batch(
                        context.worker_id, eids, us, vs, scores=scores
                    )
                    message = _pack_message(_MSG_SCORES, us.shape[0])
                encode_s += perf() - t0
                t0 = perf()
                conn.send_bytes(message)
                send_s += perf() - t0
                t0 = perf()
                blob = conn.recv_bytes()
                wait_s += perf() - t0
                tag, count, _ = _unpack_message(blob)
                if tag != _MSG_COMMIT:
                    raise WorkerFailureError(
                        f"worker {context.worker_id}: expected a commit, "
                        f"got {tag!r}"
                    )
                published = count
                edges += us.shape[0]
                frames += 1
                piped += len(message) + len(blob)
            busy_s = read_s + score_s
            for name, value in (
                ("busy_s", busy_s), ("read_s", read_s),
                ("score_s", score_s), ("encode_s", encode_s),
                ("send_s", send_s), ("wait_s", wait_s),
                ("edges_scanned", edges), ("frames_sent", frames),
                ("bytes_piped", piped),
            ):
                span.add(name, value)
        timings = np.array([busy_s, wait_s, send_s], dtype=_DONE_TIMINGS)
        conn.send_bytes(_pack_message(_MSG_DONE, 0, timings.tobytes()))
    finally:
        # Drop the snapshot views before unmapping so the segment closes
        # without pinned-buffer noise; the name is the coordinator's.
        replicas = loads = degrees = None  # noqa: F841
        if shared is not None:
            shared.close()


# -- coordinator ------------------------------------------------------------


@dataclass(frozen=True)
class WorkerTimings:
    """Where one BSP run's seconds went, per worker and on the coordinator.

    Workers always self-time (no ``--trace`` needed): ``busy_s`` is
    scoring + reading, ``wait_s`` is barrier time blocked on the
    coordinator's commit frame, ``send_s`` is control-frame send time.
    The coordinator contributes its own split: time blocked waiting on
    worker frames, merge/commit time, and commit-frame send time.
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

    Owns the single live :class:`~repro.partition.state.StreamingState`
    and applies every worker batch to it in worker order, exactly as the
    in-process schedule does.  Workers never mutate shared state — they
    propose placements (fast path) or scores (near capacity), and this
    service is the serialized owner that commits them.
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
        the ``count × k`` score matrix (:data:`_MSG_SCORES`), both views
        of the worker's shared-memory lane.
        """
        if tag == _MSG_BATCH:
            if not safe:
                raise WorkerFailureError(
                    f"protocol divergence: worker {worker_id} took the "
                    f"fast path in a near-capacity superstep"
                )
            ps = extra
            apply_batch(self.state, us, vs, ps)
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


#: every started, not-yet-closed pool, for service-level health checks
#: (weak references: a pool dropped without close() must not pin itself)
_LIVE_POOLS: "weakref.WeakSet[PersistentWorkerPool]" = weakref.WeakSet()


def live_pool_health() -> list[dict]:
    """Health snapshots of every started, not-yet-closed worker pool.

    The serve layer's ``/healthz`` endpoint surfaces this: a healthy
    idle service reports no live pools; during a run it reports the
    active pool with every worker alive.
    """
    return [pool.health() for pool in list(_LIVE_POOLS)]


class PersistentWorkerPool:
    """Warm worker processes: spawn once, run many jobs, shut down once.

    The one way work reaches a worker process.  The pool keeps its
    processes alive across jobs — the counting pass, the streaming
    phase, and the metrics pass of one partition run (or many runs) all
    reuse the same workers, so the spawn tax is paid once.  A job is a
    module-level handler plus kwargs, pickled into one
    :data:`_MSG_JOB` frame; the handler owns the pipe protocol from
    there (:func:`_stream_shared_job` drives BSP supersteps, the
    handlers in :mod:`repro.stream.parallel_scan` run one-shot sweeps).

    The pool owns the processes, pipes, liveness-watching receive loop
    and the single-:class:`~repro.errors.WorkerFailureError` failure
    surface (terminate + join everything, no orphans).

    Parameters
    ----------
    workers:
        Number of worker processes.
    mp_context:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap) and falls back to ``spawn``.
    timeout:
        Seconds the coordinator waits on a silent worker, per received
        frame, before raising :class:`~repro.errors.WorkerFailureError`.
        Callers running long uninterrupted sweeps (the scan front doors)
        temporarily widen it around their job.
    """

    def __init__(
        self,
        workers: int,
        mp_context: str | None = None,
        timeout: float = DEFAULT_WORKER_TIMEOUT,
    ) -> None:
        """Size the pool; :meth:`start` spawns the processes."""
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        # What each worker sweeps in the current job (set by submit), so
        # failure messages can name it.
        self.worker_segments: list[list[EdgeSegment]] = [
            [] for _ in range(self.workers)
        ]
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.mp_context = mp_context
        self.timeout = float(timeout)
        self._procs: list = []
        self._conns: list = []
        # Always-on receive accounting (coordinator-side): seconds spent
        # blocked on worker frames, and frames/bytes drained.
        self.recv_wait_s = 0.0
        self.frames_recv = 0
        self.bytes_recv = 0
        self._trace_workers = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Fork the workers into their job loops.

        When the process-global tracer is live the spawn is wrapped in a
        ``pool_spawn`` span and every worker gets a trace flag, telling
        it to collect spans and ship them back after each job (see
        :meth:`collect_worker_spans`).
        """
        if self._procs:
            raise ConfigurationError(
                f"{type(self).__name__} already started"
            )
        tracer = get_tracer()
        self._trace_workers = bool(tracer.enabled)
        ctx = multiprocessing.get_context(self.mp_context)
        with tracer.span(
            "pool_spawn", workers=self.workers, pool=type(self).__name__,
            mp_context=self.mp_context,
        ):
            pipes = [ctx.Pipe(duplex=True) for _ in range(self.workers)]
            try:
                for w in range(self.workers):
                    proc = ctx.Process(
                        target=_job_worker_main,
                        args=(w, pipes, self._trace_workers),
                        name=f"repro-worker-{w}",
                        daemon=True,
                    )
                    proc.start()
                    self._procs.append(proc)
            except BaseException:
                # A failed spawn must not leak processes already forked.
                self.close()
                raise
            for parent_end, child_end in pipes:
                child_end.close()
                self._conns.append(parent_end)
        _LIVE_POOLS.add(self)

    @property
    def pids(self) -> list[int]:
        """Worker process ids (for monitoring and failure injection)."""
        return [proc.pid for proc in self._procs]

    def health(self) -> dict:
        """Liveness snapshot: pool type, worker count, per-worker state.

        ``healthy`` is true iff every spawned worker process is still
        alive.  A never-started or closed pool reports zero workers and
        counts as healthy (nothing to be dead).
        """
        alive = [proc.is_alive() for proc in self._procs]
        return {
            "pool": type(self).__name__,
            "workers": len(self._procs),
            "alive": alive,
            "pids": [proc.pid for proc in self._procs],
            "healthy": all(alive),
        }

    def close(self) -> None:
        """Terminate and join every worker; close every pipe. Idempotent."""
        _LIVE_POOLS.discard(self)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._conns = []
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._procs = []

    def submit(
        self,
        handler,
        kwargs_per_worker: Sequence[dict],
        segments: "Sequence[Sequence[EdgeSegment]] | None" = None,
    ) -> None:
        """Send one ``(handler, kwargs)`` job to every worker.

        ``handler`` must be a module-level callable (pickled by
        reference) taking a :class:`_JobContext` plus its kwargs.
        ``segments`` optionally records what each worker is sweeping so
        failure messages can name it.
        """
        if not self._procs:
            raise ConfigurationError("submit() before start()")
        if len(kwargs_per_worker) != self.workers:
            raise ConfigurationError(
                f"submit() needs kwargs for all {self.workers} workers, "
                f"got {len(kwargs_per_worker)}"
            )
        if segments is not None:
            self.worker_segments = [list(segs) for segs in segments]
        for w, kwargs in enumerate(kwargs_per_worker):
            frame = _pack_message(
                _MSG_JOB, 0, pickle.dumps((handler, kwargs))
            )
            try:
                self._conns[w].send_bytes(frame)
            except (BrokenPipeError, OSError):
                raise self._worker_died(w) from None

    def shutdown(self) -> None:
        """Ask the job loops to exit, join briefly, then tear down.

        Idempotent, and safe after failures: workers that already died
        are skipped and :meth:`close` terminates any straggler.  The
        graceful drain (send ``SHUTDOWN``, join) runs
        under a ``finally``-guarded :meth:`close`, so an interrupt
        delivered mid-drain still terminates every process.
        """
        try:
            for conn in self._conns:
                try:
                    conn.send_bytes(_pack_message(_MSG_SHUTDOWN, 0))
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=5.0)
        finally:
            self.close()

    def __enter__(self) -> "PersistentWorkerPool":
        """Start the pool on entry."""
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Shut the pool down (drain, terminate stragglers) on exit."""
        self.shutdown()

    # -- protocol plumbing --------------------------------------------------

    def _describe_worker(self, w: int) -> str:
        segments = self.worker_segments[w]
        if not segments:
            return f"worker {w} (no segments)"
        names = ", ".join(seg.describe() for seg in segments)
        return f"worker {w} (segments: {names})"

    def _worker_died(self, w: int) -> WorkerFailureError:
        exitcode = self._procs[w].exitcode
        return WorkerFailureError(
            f"{self._describe_worker(w)} died mid-sweep "
            f"(exit code {exitcode}) before finishing its stream"
        )

    def _recv(self, w: int) -> bytes:
        """Receive one message from worker ``w``, watching its liveness.

        Accounts the blocked time and drained frames/bytes into
        :attr:`recv_wait_s` / :attr:`frames_recv` / :attr:`bytes_recv`.
        """
        conn = self._conns[w]
        proc = self._procs[w]
        started = time.perf_counter()
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                if conn.poll(0.05):
                    return self._account_recv(conn.recv_bytes(), started)
            except (EOFError, OSError):
                raise self._worker_died(w) from None
            if not proc.is_alive():
                # Drain a final message that raced with the exit.
                try:
                    if conn.poll(0.25):
                        return self._account_recv(conn.recv_bytes(), started)
                except (EOFError, OSError):
                    pass
                raise self._worker_died(w)
            if time.monotonic() > deadline:
                raise WorkerFailureError(
                    f"{self._describe_worker(w)} sent nothing for "
                    f"{self.timeout:.0f}s; presumed hung"
                )

    def _account_recv(self, blob: bytes, started: float) -> bytes:
        """Fold one received frame into the receive counters."""
        self.recv_wait_s += time.perf_counter() - started
        self.frames_recv += 1
        self.bytes_recv += len(blob)
        return blob

    def collect_worker_spans(self, **attrs) -> None:
        """Adopt each worker's trace records (its final pipe message).

        No-op unless :meth:`start` armed tracing.  Workers send their
        drained span records as one :data:`_MSG_TRACE` message *after*
        their last protocol message, so this must run after the pool's
        protocol has fully completed.  Adopted roots are re-parented
        under the caller's current span and tagged with ``attrs``.
        """
        if not self._trace_workers:
            return
        tracer = get_tracer()
        for w in range(self.workers):
            tag, _, payload = _unpack_message(self._recv(w))
            if tag == _MSG_ERROR:
                self._raise_worker_error(w, payload)
            if tag != _MSG_TRACE:
                raise WorkerFailureError(
                    f"{self._describe_worker(w)} sent {tag!r} where its "
                    f"trace records were expected"
                )
            tracer.adopt(pickle.loads(bytes(payload)), worker=w, **attrs)

    def _raise_worker_error(self, w: int, payload: memoryview) -> None:
        try:
            exc_type, message = pickle.loads(bytes(payload))
        except Exception:  # noqa: BLE001 — corrupt error payloads
            exc_type, message = "unknown error", "<undecodable payload>"
        raise WorkerFailureError(
            f"{self._describe_worker(w)} failed: {exc_type}: {message}"
        )


def run_bsp_shared(
    pool: PersistentWorkerPool,
    segments: Sequence[Sequence[EdgeSegment]],
    state: StreamingState,
    parts: np.ndarray,
    batch: int = DEFAULT_WORKER_BATCH,
    lam: float = 1.1,
    eps: float = 1.0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> MultiWorkerReport:
    """Drive one shared-memory BSP streaming run on a warm pool.

    Bit-identical to the in-process ``bsp_hdrf_stream`` for the same
    ``segments``/``batch``: the schedule is ``len(segments)`` streams
    wide regardless of pool size (spare workers get empty segment lists
    and report DONE immediately), merges happen in worker order, and the
    fast/slow path split is the same deterministic predicate.

    Worker batches land in per-worker scratch lanes of one
    :class:`~repro.parallel.shm.SharedState` segment and the merged
    delta is never broadcast — the coordinator folds it into the
    double-buffered snapshot
    (:meth:`~repro.parallel.shm.SharedState.commit`) and releases the
    workers with an empty ``COMMIT`` frame naming the published buffer.
    Workers apply no deltas, and pipes carry only control frames.

    Mutates ``state`` and ``parts``; the segment is closed and unlinked
    on every exit path.  Worker failures surface as one
    :class:`~repro.errors.WorkerFailureError` (the caller owns pool
    teardown, normally via :meth:`PersistentWorkerPool.shutdown`).
    """
    if batch < 1:
        raise ConfigurationError(f"batch must be >= 1, got {batch}")
    workers = len(segments)
    if workers < 1:
        raise ConfigurationError("run_bsp_shared needs >= 1 segment list")
    if workers > pool.workers:
        raise ConfigurationError(
            f"schedule is {workers} streams wide but the pool has only "
            f"{pool.workers} workers"
        )
    padded = [list(segs) for segs in segments]
    padded += [[] for _ in range(pool.workers - workers)]
    tracer = get_tracer()
    perf = time.perf_counter
    service = StateService(state, parts, workers, batch)
    supersteps = fast = slow = 0
    merge_s = commit_s = encode_s = send_s = 0.0
    frames_sent = bytes_sent = 0
    first_commit_at = 0.0
    worker_timings: dict[int, tuple[float, float, float]] = {}
    # The pool's receive counters are cumulative across jobs; report
    # this run's deltas.
    recv0 = pool.recv_wait_s
    frames0 = pool.frames_recv
    bytes0 = pool.bytes_recv
    # The segment is created *inside* the try so an interrupt landing
    # anywhere after creation — including between create() and the
    # superstep loop — still reaches the finally-unlink below.
    shared = None
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
            "pool_run", pool="bsp-shm", workers=workers, batch=batch,
        ) as span:
            pool.submit(
                _stream_shared_job,
                [
                    dict(
                        segments=padded[w],
                        shm_name=shared.name,
                        num_vertices=state.num_vertices,
                        k=state.k,
                        capacity=state.capacity,
                        workers=workers,
                        batch=batch,
                        lam=lam,
                        eps=eps,
                        chunk_size=chunk_size,
                    )
                    for w in range(pool.workers)
                ],
                segments=padded,
            )
            active = list(range(pool.workers))
            while active:
                safe = service.begin_superstep()
                messages = []
                for w in active:
                    tag, count, payload = _unpack_message(pool._recv(w))
                    messages.append((w, tag, count, payload))
                delta_us: list[np.ndarray] = []
                delta_vs: list[np.ndarray] = []
                delta_ps: list[np.ndarray] = []
                senders: list[int] = []
                for w, tag, count, payload in messages:
                    if tag == _MSG_DONE:
                        active.remove(w)
                        expected = (
                            _DONE_TIMING_FIELDS * _DONE_TIMINGS.itemsize
                        )
                        if len(payload) >= expected:
                            busy, wait, send = np.frombuffer(
                                payload, dtype=_DONE_TIMINGS,
                                count=_DONE_TIMING_FIELDS,
                            )
                            worker_timings[w] = (
                                float(busy), float(wait), float(send)
                            )
                        continue
                    if tag == _MSG_ERROR:
                        pool._raise_worker_error(w, payload)
                    t0 = perf()
                    eids, us, vs, extra = shared.read_batch(
                        w, count, slow=tag == _MSG_SCORES
                    )
                    us, vs, ps = service.merge_arrays(
                        w, tag, eids, us, vs, extra, safe
                    )
                    merge_s += perf() - t0
                    delta_us.append(us)
                    delta_vs.append(vs)
                    delta_ps.append(ps)
                    senders.append(w)
                if not senders:
                    continue
                supersteps += 1
                if safe:
                    fast += 1
                else:
                    slow += 1
                if not first_commit_at:
                    first_commit_at = time.time()
                t0 = perf()
                # np.concatenate always copies, so the commit never
                # holds a lane view across the frame that lets workers
                # overwrite their lanes.
                published = shared.commit(
                    np.concatenate(delta_us),
                    np.concatenate(delta_vs),
                    np.concatenate(delta_ps),
                )
                commit_s += perf() - t0
                t0 = perf()
                frame = _pack_message(_MSG_COMMIT, published)
                encode_s += perf() - t0
                t0 = perf()
                for w in senders:
                    try:
                        pool._conns[w].send_bytes(frame)
                    except (BrokenPipeError, OSError):
                        raise pool._worker_died(w) from None
                send_s += perf() - t0
                frames_sent += len(senders)
                bytes_sent += len(frame) * len(senders)
            pool.collect_worker_spans()
            if tracer.enabled and supersteps:
                # One aggregate span (a per-superstep span per commit
                # would dwarf the trace); dur_s is the measured total.
                tracer.adopt([{
                    "type": "span", "id": 0, "parent": None,
                    "name": "superstep_commit", "start": first_commit_at,
                    "dur_s": commit_s,
                    "attrs": {"side": "coordinator"},
                    "counters": {"supersteps": supersteps},
                }])
            for name, value in (
                ("recv_wait_s", pool.recv_wait_s - recv0),
                ("merge_s", merge_s), ("commit_s", commit_s),
                ("encode_s", encode_s), ("send_s", send_s),
                ("supersteps", supersteps),
                ("frames_sent", pool.frames_recv - frames0 + frames_sent),
                ("bytes_piped", pool.bytes_recv - bytes0 + bytes_sent),
            ):
                span.add(name, value)
    finally:
        # On the failure path the propagating traceback pins this frame;
        # null the lane views it may hold (the per-worker reads and the
        # fast-path delta lists) so the segment can unmap.
        eids = us = vs = extra = None  # noqa: F841
        delta_us = delta_vs = delta_ps = None  # noqa: F841
        if shared is not None:
            shared.close()
            shared.unlink()
    timings = WorkerTimings(
        busy_s=tuple(
            worker_timings.get(w, (0.0, 0.0, 0.0))[0]
            for w in range(workers)
        ),
        wait_s=tuple(
            worker_timings.get(w, (0.0, 0.0, 0.0))[1]
            for w in range(workers)
        ),
        send_s=tuple(
            worker_timings.get(w, (0.0, 0.0, 0.0))[2]
            for w in range(workers)
        ),
        coordinator_recv_s=pool.recv_wait_s - recv0,
        coordinator_merge_s=merge_s + commit_s,
        coordinator_send_s=send_s,
    )
    return MultiWorkerReport(
        workers=workers,
        batch=batch,
        supersteps=supersteps,
        edges_streamed=service.edges_streamed,
        fast_supersteps=fast,
        slow_supersteps=slow,
        timings=timings,
    )


# -- planning ---------------------------------------------------------------


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
    if is_manifest_path(path):
        manifest = read_shard_manifest(path)
        offsets = [0]
        for count in manifest.shard_edges:
            offsets.append(offsets[-1] + count)
        kind = "flat" if manifest.compression is None else "framed"
        segments: list[list[EdgeSegment]] = []
        for w in range(workers):
            segs = [
                EdgeSegment(
                    path=str(manifest.shard_paths[i]),
                    count=manifest.shard_edges[i],
                    eid_start=offsets[i],
                    kind=kind,
                    compression=manifest.compression,
                )
                for i in range(w, manifest.num_shards, workers)
            ]
            segments.append(segs)
        streams = shard_round_robin_streams(manifest.shard_edges, workers)
        return segments, streams, manifest.num_edges, manifest.num_vertices
    from repro.stream.reader import BINARY_SUFFIXES, require_edge_format

    if path.suffix not in BINARY_SUFFIXES:
        raise ConfigurationError(
            f"{path}: multi-worker partitioning streams shard manifests "
            f"or flat binary edge files ({', '.join(BINARY_SUFFIXES)}); "
            f"export one with 'datasets --export' or 'extsort --shards'"
        )
    require_edge_format(path, "binary")
    size = path.stat().st_size
    if size % 8 != 0:
        raise ConfigurationError(
            f"{path}: binary edge list length {size} is not a multiple of 8"
        )
    num_edges = size // 8
    streams = contiguous_streams(num_edges, workers)
    segments = [
        [
            EdgeSegment(
                path=str(path),
                count=int(stream.size),
                eid_start=int(stream[0]) if stream.size else 0,
                kind="flat",
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
                    kind="spill",
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
