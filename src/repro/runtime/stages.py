"""Stage implementations and the mutable run context they share.

These are the bodies of both pipelines — HEP's six stages and the
streaming baselines' three — behind the stage registry, so there is
exactly one pipeline to register into.  Each stage keeps a fixed call
order, kernel invocations, and trace span names
(``count_pass``/``select_tau``/``split_pass``/``phase_one``/
``stream_pass``/``metrics_pass``) — the property the equivalence and
observability suites pin bit for bit.

Stages take ``(spec, ctx, executor)``: the spec is frozen
configuration, the :class:`RunContext` carries the materializing state
(source, stats, CSR, spill, parts, ...), and the executor supplies the
strategy for the passes that have both an in-process and a worker-pool
form (:mod:`repro.runtime.executor`).
"""

from __future__ import annotations

import numpy as np

from repro.core.hep import HepPhaseBreakdown, phase_two_capacity
from repro.core.memory_model import hep_memory_bytes_from_entries
from repro.core.ne_plus_plus import run_ne_plus_plus_on_csr
from repro.core.tau import DEFAULT_TAU_GRID, select_from_footprints
from repro.errors import PartitioningError
from repro.graph.csr import CsrGraph
from repro.obs.tracer import get_tracer
from repro.runtime.plan import register_stage
from repro.runtime.spec import JobSpec
from repro.stream.scan import chunked_quality, scan_source

__all__ = ["RunContext"]


class RunContext:
    """Mutable state one job accumulates as its stages run.

    Built by :func:`repro.runtime.api.run_job`; stages read what
    earlier stages provided and write what they produce.  ``pool``
    holds the warm :class:`~repro.stream.workers.PersistentWorkerPool`
    when the executor started one, ``spill`` the open
    :class:`~repro.stream.spill.SpillFile` between the split and
    stream stages.
    """

    def __init__(self, spec: JobSpec, source, algorithm=None) -> None:
        self.spec = spec
        #: the original source argument (path/Graph/open source)
        self.source = source
        #: the opened EdgeChunkSource (set by the runner)
        self.src = None
        #: streaming-algorithm adapter instance (streaming pipeline only)
        self.algorithm = algorithm
        #: warm worker pool, when the executor started one
        self.pool = None
        #: per-worker spill/shard segments (PoolExecutor)
        self.segments = None
        self.stats = None
        self.tau: float | None = None
        self.projected_memory_bytes: int | None = None
        self.high = None
        self.spill = None
        self.csr = None
        self.phase_one = None
        self.parts = None
        self.loads = None
        self.passes = 1
        self.num_h2h = 0
        self.spill_bytes = 0
        self.breakdown: HepPhaseBreakdown | None = None
        self.report = None
        self.replication_factor: float | None = None
        self.edge_balance: float | None = None
        self.executed: list[str] = []
        #: message for the empty-source error (driver-specific wording)
        self.empty_message = "edge stream is empty"

    def close(self) -> None:
        """Release run-scoped resources (the spill file, if still open)."""
        if self.spill is not None:
            self.spill.close()
            self.spill = None


# -- stages -----------------------------------------------------------------


@register_stage("count", provides=("stats",))
def stage_count(spec: JobSpec, ctx: RunContext, executor) -> None:
    """Counting pass: exact degrees, vertex universe, edge count."""
    ctx.stats = scan_source(ctx.src)
    if ctx.stats.num_edges == 0:
        raise PartitioningError(ctx.empty_message)


@register_stage("select_tau", provides=("tau", "high"))
def stage_select_tau(spec: JobSpec, ctx: RunContext, executor) -> None:
    """Resolve tau (fixed, budget-selected, or the 10.0 default)."""
    tracer = get_tracer()
    if spec.tau is not None:
        ctx.tau = spec.tau
    elif spec.memory_budget is not None:
        with tracer.span("select_tau", budget=spec.memory_budget):
            ctx.tau, ctx.projected_memory_bytes = _select_tau_from_budget(
                spec, ctx.src, ctx.stats, spec.k
            )
    else:
        ctx.tau = 10.0
    threshold = ctx.tau * ctx.stats.mean_degree
    ctx.high = ctx.stats.degrees > threshold


@register_stage("split", provides=("spill", "csr"))
def stage_split(spec: JobSpec, ctx: RunContext, executor) -> None:
    """Splitting pass: h2h chunks to the disk spill, the rest into CSR."""
    from repro.stream.spill import SpillFile

    tracer = get_tracer()
    ctx.spill = SpillFile(
        dir=spec.spill_dir, compression=spec.spill_compression
    )
    with tracer.span("split_pass", tau=ctx.tau) as span:
        ctx.csr = _split_and_build(ctx.src, ctx.stats, ctx.high, ctx.spill)
        span.add("edges_scanned", ctx.stats.num_edges)
        span.add("spill_bytes", ctx.spill.nbytes)


@register_stage("phase_one", provides=("phase_one", "parts", "loads"))
def stage_phase_one(spec: JobSpec, ctx: RunContext, executor) -> None:
    """Phase one: NE++ on the chunk-built pruned CSR."""
    tracer = get_tracer()
    with tracer.span("phase_one", k=spec.k) as span:
        ctx.phase_one = run_ne_plus_plus_on_csr(ctx.csr, spec.k, tau=ctx.tau)
        stats = ctx.phase_one.stats
        span.add("seeds", stats.num_seeds)
        span.add("cored", stats.num_cored)
        span.add("spilled_edges", stats.spilled_edges)
        span.add("cleanup_removed", stats.cleanup_removed_entries)
    ctx.parts = ctx.phase_one.parts
    ctx.loads = ctx.phase_one.loads.copy()


@register_stage("stream", provides=("parts", "loads", "passes", "breakdown"))
def stage_stream(spec: JobSpec, ctx: RunContext, executor) -> None:
    """Streaming phase: the spill read-back (HEP) or the source sweeps."""
    tracer = get_tracer()
    if ctx.spill is not None:
        # HEP pipeline: informed HDRF over the spilled h2h edges.
        if len(ctx.spill):
            with tracer.span("stream_pass", phase="spill") as span:
                ctx.loads = executor.stream_spill(spec, ctx)
                span.add("edges_scanned", len(ctx.spill))
                span.add("spill_bytes", ctx.spill.nbytes)
        ctx.spill_bytes = ctx.spill.nbytes
        ctx.num_h2h = len(ctx.spill)
        ctx.close()
        ctx.breakdown = HepPhaseBreakdown(
            num_edges=ctx.stats.num_edges,
            num_h2h_edges=ctx.num_h2h,
            num_inmemory_edges=ctx.stats.num_edges - ctx.num_h2h,
            cleanup_removed_fraction=(
                ctx.phase_one.stats.cleanup_removed_fraction
            ),
            spilled_edges=ctx.phase_one.stats.spilled_edges,
        )
    else:
        executor.stream_source(spec, ctx)


@register_stage("metrics", provides=("replication_factor", "edge_balance"))
def stage_metrics(spec: JobSpec, ctx: RunContext, executor) -> None:
    """Metrics pass: replication factor and edge balance over the source."""
    ctx.replication_factor, ctx.edge_balance = chunked_quality(
        ctx.src, ctx.stats, spec.k, ctx.parts, spec.memory_budget
    )


# -- HEP stage bodies ------------------------------------------------------


def _select_tau_from_budget(
    spec: JobSpec, src, stats, k: int
) -> tuple[float, int]:
    """Largest :data:`DEFAULT_TAU_GRID` tau whose footprint fits the budget.

    The footprint is §4.2's model at 4-byte vertex ids.
    """
    taus = np.asarray(sorted(DEFAULT_TAU_GRID), dtype=np.float64)
    entries = _grid_column_entries(
        src, stats.degrees, taus * stats.mean_degree
    )
    footprints = [
        hep_memory_bytes_from_entries(count, stats.num_vertices, k)
        for count in entries.tolist()
    ]
    return select_from_footprints(
        taus.tolist(), footprints, spec.memory_budget
    )


def _grid_column_entries(
    src, degrees: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Pruned-CSR column entries at each of the ascending ``thresholds``.

    The streaming equivalent of
    :func:`~repro.core.memory_model.pruned_column_entries`: 2 entries
    per low/low edge and 1 per mixed edge, counted chunk by chunk.  A
    vertex's *level* is the number of thresholds below its degree, so
    it is high at grid step ``t`` exactly when ``t < level``.  An edge
    then holds one entry at every step from the larger of its
    endpoints' levels on and one more from the smaller, so one
    ``bincount`` of each per chunk and a final cumulative sum give every
    step's count.  Its working memory is O(n + chunk).
    """
    steps = thresholds.size
    level = np.searchsorted(thresholds, degrees, side="left")
    counts = np.zeros(steps + 1, dtype=np.int64)
    for chunk in src:
        lu = level[chunk.pairs[:, 0]]
        lv = level[chunk.pairs[:, 1]]
        counts += np.bincount(np.maximum(lu, lv), minlength=steps + 1)
        counts += np.bincount(np.minimum(lu, lv), minlength=steps + 1)
    return np.cumsum(counts)[:steps]


def _split_and_build(src, stats, high: np.ndarray, spill) -> CsrGraph:
    """Splitting pass: h2h chunks to disk, kept chunks into the CSR."""
    kept_pairs: list[np.ndarray] = []
    kept_eids: list[np.ndarray] = []
    for chunk in src:
        hu = high[chunk.pairs[:, 0]]
        hv = high[chunk.pairs[:, 1]]
        h2h = hu & hv
        spill.append(chunk.pairs[h2h], chunk.eids[h2h])
        keep = ~h2h
        if keep.any():
            kept_pairs.append(chunk.pairs[keep])
            kept_eids.append(chunk.eids[keep])
    if kept_pairs:
        pairs = np.vstack(kept_pairs)
        eids = np.concatenate(kept_eids)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
        eids = np.empty(0, dtype=np.int64)
    return CsrGraph.from_arrays(
        num_vertices=stats.num_vertices,
        pairs=pairs,
        eids=eids,
        degrees=stats.degrees,
        high_mask=high,
        num_edges_total=stats.num_edges,
    )


def informed_phase_two_state(spec: JobSpec, ctx: RunContext):
    """Build the informed-HDRF state both phase-two strategies share."""
    from repro.partition.state import StreamingState

    capacity = phase_two_capacity(
        ctx.stats.num_edges, spec.k, spec.alpha, ctx.phase_one.loads
    )
    return StreamingState.informed_arrays(
        ctx.stats.num_vertices,
        ctx.stats.degrees,
        spec.k,
        capacity,
        replicas=ctx.phase_one.secondary,
        loads=ctx.phase_one.loads,
    )
