"""Worker-parallel counting & metrics passes over segmentable sources.

Besides the streaming phase, a run makes two sequential ``O(m)`` sweeps:
the counting pass and the quality/metrics pass
(:mod:`repro.stream.scan`).  This module runs both as jobs on the warm
:class:`~repro.stream.workers.PersistentWorkerPool`, over the shard
assignment of :func:`~repro.stream.workers.plan_worker_segments`.
Both passes are pure order-independent reductions, so the parallel runs
are **bit-identical** to the sequential references:

* **counting** (:func:`_count_job`) — each worker sweeps its shard
  assignment accumulating a partial degree array and edge count
  (:func:`~repro.stream.scan.accumulate_degrees`, the same chunk step
  the sequential pass runs); the coordinator *sums* the partials and
  applies the identical declared-universe reconciliation
  (:func:`~repro.stream.scan.finalize_source_stats`).
* **metrics** (:func:`_cover_job`) — the assignment is published once
  as a read-only :class:`~repro.parallel.shm.SharedArray`; each worker
  sweeps its assignment marking per-partition vertex covers as packed
  bits (:class:`~repro.stream.scan.PackedCover`, ``k x n`` true bits);
  the coordinator *ORs* the partial covers and popcounts the merge.
  The column-blocked budget fallback (:func:`~repro.stream.scan.
  plan_cover_blocks`) applies unchanged: every process holds at most
  one block's cover at a time, so ``--memory-budget`` bounds worker
  memory too (each worker pays one cover — the same replication price
  the BSP snapshot already set a precedent for).

Failure semantics are the pool's: a worker that dies or hits a corrupt
shard surfaces as one :class:`~repro.errors.WorkerFailureError` (or the
sequential pass's :class:`~repro.errors.GraphFormatError` for a bad
shard) and no process is orphaned.

The front doors :func:`scan_stats` / :func:`scan_quality` pick the
parallel path when the source is segmentable on disk
(:func:`supports_parallel_scan`: a shard manifest or flat binary edge
file) and ``workers > 1``, and fall back to the sequential pass on the
already-opened chunk source otherwise.  The runtime executors
(:mod:`repro.runtime.executor`) pass the warm pool a run shares across
its passes; other callers (:mod:`repro.stream.extsort`,
:func:`repro.metrics.streamed_quality_report`, the ``scan`` CLI
command) pass none, and the front door starts a pool for the one call.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import time
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError, WorkerFailureError
from repro.obs.tracer import get_tracer
from repro.parallel.shm import SharedArray
from repro.stream.reader import (
    BINARY_SUFFIXES,
    DEFAULT_CHUNK_SIZE,
    EdgeChunkSource,
)
from repro.stream.scan import (
    PackedCover,
    SourceStats,
    accumulate_degrees,
    chunked_quality,
    finalize_source_stats,
    plan_cover_blocks,
    scan_source,
)
from repro.stream.shard import _iter_segment, is_manifest_path
from repro.stream.workers import (
    _MSG_ERROR,
    _pack_message,
    _unpack_message,
    PersistentWorkerPool,
    plan_worker_segments,
)

__all__ = [
    "supports_parallel_scan",
    "effective_scan_workers",
    "scan_stats",
    "scan_quality",
    "DEFAULT_SCAN_TIMEOUT",
]

#: seconds the coordinator waits on a silent scan worker.  Unlike the
#: BSP pool (which hears from every worker once per superstep, so its
#: 120s default means real silence), a scan worker's first bytes arrive
#: only after it sweeps its whole shard assignment — minutes of healthy
#: silence on big inputs — so the hang watchdog is far more generous.
#: A *dead* worker is still detected promptly via process liveness.
DEFAULT_SCAN_TIMEOUT = 3600.0

# message tags (the spill-frame wire format of repro.stream.workers)
_MSG_COUNTS = b"G"  # worker -> coord: int64 edge count + partial degrees
_MSG_COVER = b"C"   # worker -> coord: one block's packed cover words


def _resurface_error(pool: PersistentWorkerPool, w: int, payload) -> None:
    """Re-raise a worker's forwarded exception with sequential-pass types.

    The scan sweeps are deterministic reads, so a data problem a worker
    hits (a truncated or malformed shard) is the *source's* fault and
    resurfaces as :class:`~repro.errors.GraphFormatError` — exactly what
    the sequential pass would have raised in-process.  Anything else
    stays a :class:`~repro.errors.WorkerFailureError` via the pool.
    """
    try:
        exc_type, message = pickle.loads(bytes(payload))
    except Exception:  # noqa: BLE001 — corrupt error payloads
        pool._raise_worker_error(w, payload)
        return
    if exc_type == "GraphFormatError":
        raise GraphFormatError(
            f"{message} (read by {pool._describe_worker(w)})"
        )
    pool._raise_worker_error(w, payload)


def supports_parallel_scan(source) -> bool:
    """True when ``source`` names an on-disk stream workers can split.

    The scan pools assign work with :func:`~repro.stream.workers.
    plan_worker_segments`, which understands shard manifests and flat
    binary edge files.  Dataset names, in-memory graphs, text files and
    already-opened sources fall back to the sequential pass.
    """
    if isinstance(source, EdgeChunkSource) or not isinstance(
        source, (str, os.PathLike)
    ):
        return False
    path = Path(source)
    if not path.exists():
        return False
    return is_manifest_path(path) or path.suffix in BINARY_SUFFIXES


def effective_scan_workers(source, workers: int) -> int:
    """Workers the front doors will actually fan out over (0 = sequential).

    The single source of truth for the parallel-vs-sequential decision:
    :func:`scan_stats`, :func:`scan_quality` and the CLI's ``scan
    passes`` report all call this, so what is printed always matches
    what ran.
    """
    return workers if workers > 1 and supports_parallel_scan(source) else 0


# -- job handlers (run by PersistentWorkerPool workers) ---------------------


def _count_job(context, *, segments, chunk_size: int) -> None:
    """Counting sweep: partial degrees + edge count over ``segments``."""
    perf = time.perf_counter
    with context.tracer.span("worker_count", worker=context.worker_id) as span:
        t0 = perf()
        degrees = np.zeros(0, dtype=np.int64)
        num_edges = 0
        for segment in segments:
            for pairs, _eids in _iter_segment(segment, chunk_size):
                num_edges += pairs.shape[0]
                degrees = accumulate_degrees(degrees, pairs)
        busy_s = perf() - t0
        t0 = perf()
        payload = (
            np.array([num_edges], dtype="<i8").tobytes()
            + np.ascontiguousarray(degrees, dtype="<i8").tobytes()
        )
        message = _pack_message(_MSG_COUNTS, degrees.size, payload)
        encode_s = perf() - t0
        t0 = perf()
        context.conn.send_bytes(message)
        send_s = perf() - t0
        for name, value in (
            ("busy_s", busy_s), ("encode_s", encode_s),
            ("send_s", send_s), ("edges_scanned", num_edges),
            ("frames_sent", 1), ("bytes_piped", len(message)),
        ):
            span.add(name, value)


def _cover_job(
    context,
    *,
    segments,
    chunk_size: int,
    k: int,
    parts_name: str,
    parts_shape: tuple,
    parts_dtype: str,
    blocks,
) -> None:
    """Metrics sweep: per-block packed covers over ``segments``.

    The assignment arrives as a read-only
    :class:`~repro.parallel.shm.SharedArray` (named by ``parts_name``)
    rather than pickled per job — at millions of edges the assignment
    is the biggest payload a scan ships.
    """
    perf = time.perf_counter
    shared = SharedArray.attach(parts_name, tuple(parts_shape), parts_dtype)
    try:
        parts = shared.array
        with context.tracer.span(
            "worker_cover", worker=context.worker_id
        ) as span:
            busy_s = encode_s = send_s = 0.0
            edges = piped = 0
            for index, (lo, hi) in enumerate(blocks):
                t0 = perf()
                cover = PackedCover(k, lo, hi)
                for segment in segments:
                    for pairs, eids in _iter_segment(segment, chunk_size):
                        cover.mark_assignment(parts, pairs, eids)
                        edges += pairs.shape[0]
                busy_s += perf() - t0
                t0 = perf()
                message = _pack_message(
                    _MSG_COVER, index, cover.words.tobytes()
                )
                encode_s += perf() - t0
                t0 = perf()
                context.conn.send_bytes(message)
                send_s += perf() - t0
                piped += len(message)
            for name, value in (
                ("busy_s", busy_s), ("encode_s", encode_s),
                ("send_s", send_s), ("edges_scanned", edges),
                ("frames_sent", len(blocks)), ("bytes_piped", piped),
            ):
                span.add(name, value)
    finally:
        parts = None  # noqa: F841 — drop the view before unmapping
        shared.close()


# -- coordinator-side merges ----------------------------------------------


def _merge_counts(pool: PersistentWorkerPool) -> tuple[np.ndarray, int]:
    """Sum every worker's partial degrees; returns (degrees, edges)."""
    degrees = np.zeros(0, dtype=np.int64)
    num_edges = 0
    for w in range(pool.workers):
        tag, local_n, payload = _unpack_message(pool._recv(w))
        if tag == _MSG_ERROR:
            _resurface_error(pool, w, payload)
        if tag != _MSG_COUNTS:
            raise WorkerFailureError(
                f"{pool._describe_worker(w)}: expected a counting "
                f"result, got {tag!r}"
            )
        num_edges += int(np.frombuffer(payload, dtype="<i8", count=1)[0])
        partial = np.frombuffer(
            payload, dtype="<i8", count=local_n, offset=8
        )
        if local_n > degrees.size:
            grown = np.zeros(local_n, dtype=np.int64)
            grown[: degrees.size] = degrees
            degrees = grown
        degrees[:local_n] += partial
    return degrees, num_edges


def _merge_cover_block(
    pool: PersistentWorkerPool, k: int, index: int, lo: int, hi: int
) -> int:
    """OR every worker's cover for one block; returns its set bits."""
    merged = PackedCover(k, lo, hi)
    for w in range(pool.workers):
        tag, sent_index, payload = _unpack_message(pool._recv(w))
        if tag == _MSG_ERROR:
            _resurface_error(pool, w, payload)
        if tag != _MSG_COVER or sent_index != index:
            raise WorkerFailureError(
                f"{pool._describe_worker(w)}: expected cover block "
                f"{index}, got {tag!r} #{sent_index}"
            )
        merged.union_update(payload)
    return merged.count()


# -- warm-pool runners -------------------------------------------------------


def _pooled_fan(
    source, workers: int, pool: PersistentWorkerPool
) -> tuple[tuple, list]:
    """Plan a scan's segments for a warm pool: ``(plan, padded)``.

    ``plan`` is ``(segments, planned_edges, declared_vertices)`` from
    :func:`~repro.stream.workers.plan_worker_segments`.

    The sweep fans over ``min(workers, pool size)`` streams (both
    reductions are order-independent sums/ORs, so any fan is
    bit-identical); spare workers get empty segment lists so every job
    round hears from the whole pool.
    """
    fan = max(1, min(int(workers), pool.workers))
    segments, _, planned_edges, declared = plan_worker_segments(source, fan)
    padded = [list(segs) for segs in segments]
    padded += [[] for _ in range(pool.workers - fan)]
    return (segments, planned_edges, declared), padded


def _pooled_scan_source(
    source,
    workers: int,
    pool: PersistentWorkerPool,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> SourceStats:
    """Counting pass on a warm pool — ≡ the sequential :func:`scan_source`.

    The pool's per-frame watchdog is widened to the scan default for
    the duration (a scan worker's first bytes arrive only after its
    whole sweep) and restored after.
    """
    (_, planned_edges, declared), padded = _pooled_fan(
        source, workers, pool
    )
    saved_timeout = pool.timeout
    pool.timeout = max(saved_timeout, DEFAULT_SCAN_TIMEOUT)
    try:
        with get_tracer().span(
            "pool_run", pool="count", workers=len(padded)
        ) as span:
            recv0 = pool.recv_wait_s
            frames0 = pool.frames_recv
            bytes0 = pool.bytes_recv
            pool.submit(
                _count_job,
                [
                    dict(segments=segs, chunk_size=chunk_size)
                    for segs in padded
                ],
                segments=padded,
            )
            degrees, num_edges = _merge_counts(pool)
            pool.collect_worker_spans()
            span.add("recv_wait_s", pool.recv_wait_s - recv0)
            span.add("frames_sent", pool.frames_recv - frames0)
            span.add("bytes_piped", pool.bytes_recv - bytes0)
    finally:
        pool.timeout = saved_timeout
    if num_edges != planned_edges:
        raise GraphFormatError(
            f"{source}: parallel counting pass saw {num_edges} edges but "
            f"the source declares {planned_edges}; it changed on disk"
        )
    return finalize_source_stats(degrees, num_edges, declared, str(source))


def _pooled_chunked_quality(
    source,
    stats: SourceStats,
    k: int,
    parts: np.ndarray,
    workers: int,
    pool: PersistentWorkerPool,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    memory_budget: int | None = None,
) -> tuple[float, float]:
    """Metrics pass on a warm pool — ≡ the sequential :func:`chunked_quality`.

    The assignment is published once as a shared segment instead of
    being pickled into every job; it is closed and unlinked before
    returning on every path.
    """
    sizes = np.bincount(parts[parts >= 0], minlength=k)
    if stats.num_edges == 0:
        return 0.0, 1.0
    blocks = plan_cover_blocks(stats.num_vertices, k, memory_budget)
    _, padded = _pooled_fan(source, workers, pool)
    parts = np.ascontiguousarray(parts)
    replicas = 0
    saved_timeout = pool.timeout
    pool.timeout = max(saved_timeout, DEFAULT_SCAN_TIMEOUT)
    # Created inside the try: an interrupt landing after create() —
    # even before the pool round starts — must still reach the
    # finally-unlink.
    shared_parts = None
    try:
        shared_parts = SharedArray.create(parts)
        with get_tracer().span(
            "pool_run", pool="cover", workers=len(padded),
            blocks=len(blocks),
        ) as span:
            recv0 = pool.recv_wait_s
            frames0 = pool.frames_recv
            bytes0 = pool.bytes_recv
            pool.submit(
                _cover_job,
                [
                    dict(
                        segments=segs,
                        chunk_size=chunk_size,
                        k=k,
                        parts_name=shared_parts.name,
                        parts_shape=tuple(parts.shape),
                        parts_dtype=str(parts.dtype),
                        blocks=list(blocks),
                    )
                    for segs in padded
                ],
                segments=padded,
            )
            for index, (lo, hi) in enumerate(blocks):
                replicas += _merge_cover_block(pool, k, index, lo, hi)
            pool.collect_worker_spans()
            span.add("recv_wait_s", pool.recv_wait_s - recv0)
            span.add("frames_sent", pool.frames_recv - frames0)
            span.add("bytes_piped", pool.bytes_recv - bytes0)
    finally:
        pool.timeout = saved_timeout
        if shared_parts is not None:
            shared_parts.close()
            shared_parts.unlink()
    covered = int((stats.degrees > 0).sum())
    rf = float(replicas / covered) if covered else 0.0
    balance = float(sizes.max() / (stats.num_edges / k))
    return rf, balance


# -- front doors (what the drivers call) ------------------------------------


def _scan_pool(pool, workers: int, mp_context: str | None):
    """The caller's warm ``pool``, or a pool started for one call."""
    if pool is not None:
        return contextlib.nullcontext(pool)
    return PersistentWorkerPool(workers, mp_context=mp_context)


def scan_stats(
    source,
    opened: EdgeChunkSource,
    workers: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    mp_context: str | None = None,
    pool: "PersistentWorkerPool | None" = None,
) -> SourceStats:
    """Counting pass, parallel when it can be: the drivers' front door.

    ``source`` is the caller's original source argument (used to plan
    worker segments when it is segmentable), ``opened`` the chunk
    source already opened from it (used for the sequential fallback).
    A warm ``pool`` reuses already-spawned workers; without one the
    parallel pass starts a pool for this call (same result, bit for
    bit).
    """
    parallel = effective_scan_workers(source, workers)
    with get_tracer().span("count_pass", workers=parallel) as span:
        if parallel:
            with _scan_pool(pool, parallel, mp_context) as warm:
                stats = _pooled_scan_source(source, workers, warm, chunk_size)
        else:
            stats = scan_source(opened)
        span.add("edges_scanned", stats.num_edges)
        return stats


def scan_quality(
    source,
    opened: EdgeChunkSource,
    stats: SourceStats,
    k: int,
    parts: np.ndarray,
    workers: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    memory_budget: int | None = None,
    mp_context: str | None = None,
    pool: "PersistentWorkerPool | None" = None,
) -> tuple[float, float]:
    """Metrics pass, parallel when it can be: the drivers' front door.

    Same source/pool contract as :func:`scan_stats`.
    """
    parallel = effective_scan_workers(source, workers)
    with get_tracer().span("metrics_pass", workers=parallel) as span:
        if parallel:
            with _scan_pool(pool, parallel, mp_context) as warm:
                quality = _pooled_chunked_quality(
                    source, stats, k, parts, workers, warm, chunk_size,
                    memory_budget=memory_budget,
                )
        else:
            quality = chunked_quality(opened, stats, k, parts, memory_budget)
        span.add("edges_scanned", stats.num_edges)
        return quality
