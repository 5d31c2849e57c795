"""The job's stages, the two pipelines that order them, and their context.

HEP runs six stages and every other algorithm three
(:data:`PIPELINES`); :func:`~repro.runtime.api.run_job` calls them in
that order.  Each stage keeps a fixed call order, kernel invocations,
and trace span names
(``count_pass``/``select_tau``/``split_pass``/``phase_one``/
``stream_pass``/``metrics_pass``) — the property the equivalence and
observability suites pin bit for bit.

Stages take ``(spec, ctx)``: the spec is frozen configuration, the
:class:`RunContext` carries the materializing state (source, stats,
CSR, spill, parts, ...).  Only the ``stream`` stage has two forms: at
``spec.workers == 0`` it sweeps in process, otherwise it runs BSP
informed HDRF through :func:`~repro.stream.workers.run_bsp_shared`,
which streams worker 0's share in this process, forks the other
workers and reaps them before it returns.  Both forms are pinned
bit-identical to each other and to the in-memory oracles by the
equivalence suites; the form changes wall-clock and memory placement,
never assignments.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.core.hep import HepPhaseBreakdown, phase_two_capacity
from repro.core.memory_model import hep_memory_bytes_from_entries
from repro.core.ne_plus_plus import run_ne_plus_plus_on_csr
from repro.core.tau import DEFAULT_TAU_GRID, select_from_footprints
from repro.errors import PartitioningError
from repro.graph.csr import CsrGraph
from repro.obs.tracer import get_tracer
from repro.partition.base import capacity_bound
from repro.runtime.spec import JobSpec
from repro.stream.scan import chunked_quality, scan_source

__all__ = ["PIPELINES", "RunContext", "STAGES", "pipeline_kind"]

#: stage order per pipeline: HEP's two phases, or one streaming sweep
PIPELINES: dict[str, tuple[str, ...]] = {
    "hep": ("count", "select_tau", "split", "phase_one", "stream", "metrics"),
    "stream": ("count", "stream", "metrics"),
}


def pipeline_kind(spec: JobSpec) -> str:
    """``"hep"`` for the two-phase pipeline, ``"stream"`` otherwise."""
    return "hep" if spec.algo.upper() == "HEP" else "stream"


class RunContext:
    """Mutable state one job accumulates as its stages run.

    Built by :func:`repro.runtime.api.run_job`; stages read what
    earlier stages provided and write what they produce.  ``spill``
    holds the open :class:`~repro.stream.spill.SpillFile` between the
    split and stream stages.
    """

    def __init__(self, spec: JobSpec, source, algorithm=None) -> None:
        self.spec = spec
        #: the original source argument (path/Graph/open source)
        self.source = source
        #: the opened EdgeChunkSource (set by the runner)
        self.src = None
        #: registered algorithm's adapter instance (in-process only)
        self.algorithm = algorithm
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
        #: message for the empty-source error (driver-specific wording)
        self.empty_message = "edge stream is empty"

    def close(self) -> None:
        """Release the run's resources: close the spill."""
        if self.spill is not None:
            self.spill.close()
            self.spill = None


# -- stages -----------------------------------------------------------------


def stage_count(spec: JobSpec, ctx: RunContext) -> None:
    """Counting pass: exact degrees, vertex universe, edge count."""
    ctx.stats = scan_source(ctx.src)
    if ctx.stats.num_edges == 0:
        raise PartitioningError(ctx.empty_message)


def stage_select_tau(spec: JobSpec, ctx: RunContext) -> None:
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


def stage_split(spec: JobSpec, ctx: RunContext) -> None:
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


def stage_phase_one(spec: JobSpec, ctx: RunContext) -> None:
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


def stage_stream(spec: JobSpec, ctx: RunContext) -> None:
    """Streaming phase: the spill read-back (HEP) or the source sweeps.

    In process at ``spec.workers == 0``, on worker processes otherwise.
    """
    tracer = get_tracer()
    on_workers = spec.workers >= 1
    if ctx.spill is not None:
        # HEP pipeline: informed HDRF over the spilled h2h edges.
        if len(ctx.spill):
            with tracer.span("stream_pass", phase="spill") as span:
                if on_workers:
                    ctx.loads = _stream_spill_on_workers(spec, ctx)
                else:
                    ctx.loads = _stream_spill_in_process(spec, ctx)
                span.add("edges_scanned", len(ctx.spill))
                span.add("spill_bytes", ctx.spill.nbytes)
        ctx.spill_bytes = ctx.spill.nbytes
        ctx.num_h2h = len(ctx.spill)
        ctx.spill.close()
        ctx.spill = None
        ctx.breakdown = HepPhaseBreakdown(
            num_edges=ctx.stats.num_edges,
            num_h2h_edges=ctx.num_h2h,
            num_inmemory_edges=ctx.stats.num_edges - ctx.num_h2h,
            cleanup_removed_fraction=(
                ctx.phase_one.stats.cleanup_removed_fraction
            ),
            spilled_edges=ctx.phase_one.stats.spilled_edges,
        )
    elif on_workers:
        _stream_source_on_workers(spec, ctx)
    else:
        _stream_source_in_process(spec, ctx)


def stage_metrics(spec: JobSpec, ctx: RunContext) -> None:
    """Metrics pass: replication factor and edge balance over the source."""
    ctx.replication_factor, ctx.edge_balance = chunked_quality(
        ctx.src, ctx.stats, spec.k, ctx.parts, spec.memory_budget
    )


#: each stage's body, by the name :data:`PIPELINES` gives it
STAGES = {
    "count": stage_count,
    "select_tau": stage_select_tau,
    "split": stage_split,
    "phase_one": stage_phase_one,
    "stream": stage_stream,
    "metrics": stage_metrics,
}


# -- the stream stage's two forms -------------------------------------------


def _stream_source_in_process(spec: JobSpec, ctx: RunContext) -> None:
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


def _stream_spill_in_process(spec: JobSpec, ctx: RunContext) -> np.ndarray:
    """Phase two: informed HDRF over the spilled h2h chunks."""
    from repro.partition.hdrf import hdrf_stream

    state = _informed_phase_two_state(spec, ctx)
    params = spec.params
    for pairs, eids in ctx.spill.chunks(spec.chunk_size):
        hdrf_stream(
            state, pairs, eids, ctx.parts,
            lam=params.get("lam", 1.1), eps=params.get("eps", 1.0),
        )
    return state.loads


def _run_bsp(spec: JobSpec, segments, state, parts):
    """One shared-memory BSP run over ``segments``, one worker each."""
    from repro.stream.workers import run_bsp_shared

    params = spec.params
    return run_bsp_shared(
        segments, state, parts,
        batch=spec.batch, lam=params.get("lam", 1.1),
        eps=params.get("eps", 1.0), chunk_size=spec.chunk_size,
    )


def _stream_source_on_workers(spec: JobSpec, ctx: RunContext) -> None:
    """Informed HDRF over the shard assignment, one process per worker."""
    from repro.partition.state import StreamingState
    from repro.stream.workers import plan_worker_segments

    segments, _, _, _ = plan_worker_segments(ctx.source, spec.workers)
    capacity = capacity_bound(ctx.stats.num_edges, spec.k, spec.alpha)
    state = StreamingState(
        ctx.stats.num_vertices, spec.k, capacity,
        exact_degrees=ctx.stats.degrees,
    )
    parts = np.full(ctx.stats.num_edges, -1, dtype=np.int32)
    ctx.report = _run_bsp(spec, segments, state, parts)
    ctx.parts = parts
    ctx.loads = state.loads.copy()


def _stream_spill_on_workers(spec: JobSpec, ctx: RunContext) -> np.ndarray:
    """Phase two: informed HDRF over per-worker spill segments."""
    from repro.stream.workers import split_spill_round_robin

    state = _informed_phase_two_state(spec, ctx)
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
        ctx.report = _run_bsp(spec, segments, state, ctx.parts)
    return state.loads


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


def _informed_phase_two_state(spec: JobSpec, ctx: RunContext):
    """Build the informed-HDRF state both phase-two forms share."""
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
