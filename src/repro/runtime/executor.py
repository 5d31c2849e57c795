"""Pluggable executors: how a plan's stages actually run.

Two strategies exist, selected from the spec's execution shape:

* :class:`InProcessExecutor` (``workers == 0``) — sequential chunk
  sweeps in the coordinator process; the counting/metrics passes may
  still fan out over scan workers (``metrics_workers``), on one warm
  :class:`~repro.stream.workers.PersistentWorkerPool`,
* :class:`PoolExecutor` (``workers >= 1``) — the streaming phase runs
  on BSP worker processes over shared-memory state, reusing one warm
  pool across the counting pass, the stream, and the metrics pass.

Both strategies are pinned bit-identical to each other and to the
in-memory oracles by the equivalence/Hypothesis suites; the executor
choice changes wall-clock and memory placement, never assignments.
Each pass keeps its kernel calls, span names and pool lifecycle fixed,
which is what the observability suite pins.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.errors import PartitioningError
from repro.obs.tracer import get_tracer
from repro.partition.base import capacity_bound
from repro.runtime.plan import pipeline_kind
from repro.runtime.spec import JobSpec
from repro.runtime.stages import RunContext, informed_phase_two_state

__all__ = ["Executor", "InProcessExecutor", "PoolExecutor", "select_executor"]


class Executor:
    """Shared executor surface: lifecycle hooks plus the pass strategies.

    ``prepare`` runs before the source is opened, ``start`` just after,
    ``finish`` in the run's ``finally``.  The scan passes are identical
    across strategies (the front doors in
    :mod:`repro.stream.parallel_scan` pick sequential or parallel
    internally), so they live here.
    """

    name = "base"

    def prepare(self, spec: JobSpec, ctx: RunContext) -> None:
        """Hook before the source opens (planning, early pool spawn)."""

    def start(self, spec: JobSpec, ctx: RunContext) -> None:
        """Hook after the source opens (pool spawn for the run)."""

    def finish(self, spec: JobSpec, ctx: RunContext) -> None:
        """Shut down the warm pool, if this run started one."""
        if ctx.pool is not None:
            ctx.pool.shutdown()
            ctx.pool = None

    def scan_stats_pass(self, spec: JobSpec, ctx: RunContext):
        """Counting pass through the parallel-scan front door."""
        from repro.stream.parallel_scan import scan_stats

        return scan_stats(
            ctx.source, ctx.src, spec.metrics_workers, spec.chunk_size,
            mp_context=spec.mp_context, pool=ctx.pool,
        )

    def scan_quality_pass(self, spec: JobSpec, ctx: RunContext):
        """Metrics pass through the parallel-scan front door."""
        from repro.stream.parallel_scan import scan_quality

        return scan_quality(
            ctx.source, ctx.src, ctx.stats, spec.k, ctx.parts,
            spec.metrics_workers, spec.chunk_size,
            memory_budget=spec.memory_budget,
            mp_context=spec.mp_context, pool=ctx.pool,
        )

    def stream_source(self, spec: JobSpec, ctx: RunContext) -> None:
        """Streaming-pipeline stream stage (strategy-specific)."""
        raise NotImplementedError

    def stream_spill(self, spec: JobSpec, ctx: RunContext) -> np.ndarray:
        """HEP phase-two stream over the spill (strategy-specific)."""
        raise NotImplementedError


class InProcessExecutor(Executor):
    """Sequential sweeps in the coordinator process (``workers == 0``)."""

    name = "in-process"

    def start(self, spec: JobSpec, ctx: RunContext) -> None:
        """Warm scan pool for the counting/metrics fan-outs, if any.

        One warm pool serves both scan passes when the source supports
        parallel scans and ``metrics_workers > 1``.
        """
        from repro.stream.parallel_scan import effective_scan_workers

        if effective_scan_workers(ctx.source, spec.metrics_workers):
            from repro.stream.workers import PersistentWorkerPool

            # Registered on the context *before* start(): if an
            # interrupt lands mid-spawn, finish() still reaps it.
            pool = PersistentWorkerPool(spec.metrics_workers)
            ctx.pool = pool
            pool.start()

    def stream_source(self, spec: JobSpec, ctx: RunContext) -> None:
        """Chunked sweeps through the algorithm adapter (one per pass)."""
        tracer = get_tracer()
        algo = ctx.algorithm
        capacity = capacity_bound(ctx.stats.num_edges, spec.k, spec.alpha)
        algo.prepare(ctx.stats, spec.k, capacity)
        parts = np.full(ctx.stats.num_edges, -1, dtype=np.int32)
        for sweep in range(algo.passes):
            with tracer.span(
                "stream_pass", algo=algo.name, sweep=sweep
            ) as span:
                for chunk in ctx.src:
                    algo.process(chunk.pairs, chunk.eids, parts)
                    span.add("edges_scanned", chunk.num_edges)
        with tracer.span("finalize", algo=algo.name):
            parts = algo.finalize(parts, spec.k, capacity)
        ctx.parts = parts
        ctx.passes = algo.passes
        ctx.loads = np.bincount(
            parts[parts >= 0], minlength=spec.k
        ).astype(np.int64)

    def stream_spill(self, spec: JobSpec, ctx: RunContext) -> np.ndarray:
        """Phase two: informed HDRF over the spilled h2h chunks."""
        from repro.stream.buffered import stream_chunks_through_hdrf

        state = informed_phase_two_state(spec, ctx)
        params = spec.params
        stream_chunks_through_hdrf(
            state,
            ctx.spill.chunks(spec.chunk_size),
            ctx.parts,
            lam=params.get("lam", 1.1),
            eps=params.get("eps", 1.0),
            buffer_size=spec.buffer_size,
        )
        return state.loads


class PoolExecutor(Executor):
    """BSP worker processes for the streaming phase (``workers >= 1``)."""

    name = "pool"

    def prepare(self, spec: JobSpec, ctx: RunContext) -> None:
        """Multi-worker HDRF setup: shard plan + warm pool, pre-open.

        The shard assignment is planned (and the empty source rejected)
        before anything else, and the warm pool is spawned before any
        big arrays exist.  The HEP pipeline plans nothing here — its
        worker segments come from the spill split in phase two.
        """
        if pipeline_kind(spec) == "hep":
            return
        from repro.stream.workers import plan_worker_segments

        segments, _, num_edges, _ = plan_worker_segments(
            ctx.source, spec.workers
        )
        if num_edges == 0:
            raise PartitioningError("multi-worker HDRF: edge stream is empty")
        ctx.segments = segments
        self._spawn_warm_pool(spec, ctx)

    def start(self, spec: JobSpec, ctx: RunContext) -> None:
        """Multi-worker HEP: spawn the warm pool once the source is open."""
        if pipeline_kind(spec) == "hep":
            self._spawn_warm_pool(spec, ctx)

    def _spawn_warm_pool(self, spec: JobSpec, ctx: RunContext) -> None:
        """Start the warm pool every pass of this run shares."""
        from repro.stream.workers import PersistentWorkerPool

        pool = PersistentWorkerPool(
            spec.workers, mp_context=spec.mp_context, timeout=spec.timeout
        )
        # Registered on the context *before* start(): if an interrupt
        # lands mid-spawn, finish() still reaps it.
        ctx.pool = pool
        pool.start()

    def _run_bsp(self, spec: JobSpec, segments, state, parts, ctx):
        """One shared-memory BSP run over ``segments`` on the warm pool."""
        from repro.stream.workers import run_bsp_shared

        params = spec.params
        return run_bsp_shared(
            ctx.pool, segments, state, parts,
            batch=spec.batch, lam=params.get("lam", 1.1),
            eps=params.get("eps", 1.0), chunk_size=spec.chunk_size,
        )

    def stream_source(self, spec: JobSpec, ctx: RunContext) -> None:
        """Informed HDRF over the shard assignment, one process per worker."""
        from repro.partition.state import StreamingState

        capacity = capacity_bound(ctx.stats.num_edges, spec.k, spec.alpha)
        state = StreamingState(
            ctx.stats.num_vertices, spec.k, capacity,
            exact_degrees=ctx.stats.degrees,
        )
        parts = np.full(ctx.stats.num_edges, -1, dtype=np.int32)
        ctx.report = self._run_bsp(spec, ctx.segments, state, parts, ctx)
        ctx.parts = parts
        ctx.loads = state.loads.copy()

    def stream_spill(self, spec: JobSpec, ctx: RunContext) -> np.ndarray:
        """Phase two: informed HDRF over per-worker spill segments."""
        from repro.stream.workers import split_spill_round_robin

        state = informed_phase_two_state(spec, ctx)
        with tempfile.TemporaryDirectory(
            prefix="mw-h2h-", dir=spec.spill_dir
        ) as tmp:
            with get_tracer().span(
                "split_spill", workers=spec.workers
            ) as span:
                segments = split_spill_round_robin(
                    ctx.spill, spec.workers, tmp, spec.chunk_size,
                    compression=spec.spill_compression,
                )
                span.add("spill_bytes", ctx.spill.nbytes)
                span.add("spill_records", len(ctx.spill))
            ctx.report = self._run_bsp(
                spec, segments, state, ctx.parts, ctx
            )
        return state.loads


def select_executor(spec: JobSpec) -> Executor:
    """Pick the strategy from the spec's execution shape."""
    return PoolExecutor() if spec.workers >= 1 else InProcessExecutor()
