"""Out-of-core HEP: chunked reading → NE++ with spill → buffered streaming.

This driver is the subsystem's reason to exist: it partitions a graph
that is *never fully resident in memory*.  The stages, all bounded by
the chunk size:

1. **Counting pass** — one chunked sweep accumulates exact degrees, the
   vertex-universe size and the edge count (HEP needs true degrees for
   the threshold and for informed streaming).
2. **Budgeting** — given ``memory_budget`` bytes, the Section 4.2 memory
   formula is evaluated per candidate ``tau`` from chunk-counted column
   entries (:func:`~repro.core.memory_model.hep_memory_bytes_from_entries`)
   and the largest fitting ``tau`` wins, mirroring
   :func:`~repro.core.tau.select_tau` without a Graph.
3. **Splitting pass** — each chunk is split against the high-degree
   mask: h2h edges are appended to a disk-backed
   :class:`~repro.stream.spill.SpillFile`, the rest accumulate into the
   pruned CSR's edge arrays.
4. **Phase one** — NE++ runs on the chunk-built CSR
   (:func:`~repro.core.ne_plus_plus.run_ne_plus_plus_on_csr`).
5. **Phase two** — the spill file is streamed back in chunks through
   informed HDRF, optionally behind a buffered scoring window
   (:mod:`repro.stream.buffered`).
6. **Metrics pass** — replication factor and balance are computed by
   chunked sweeps over the source.  The per-partition vertex covers are
   genuinely bit-packed (``k×n`` bits via
   :class:`~repro.stream.scan.PackedCover`); when even that exceeds the
   byte budget the sweep falls back to column blocks, and with
   ``metrics_workers > 1`` both this pass and the counting pass run on
   worker processes (:mod:`repro.stream.parallel_scan`) bit-identically.

With ``order="natural"`` and no buffering the result is bit-identical
to :class:`~repro.core.hep.HepPartitioner` on the same input — the
property the test suite pins for every chunk size ≥ 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hep import HepPhaseBreakdown
from repro.core.tau import DEFAULT_TAU_GRID
from repro.errors import ConfigurationError
from repro.partition.base import PartitionAssignment
from repro.stream.reader import DEFAULT_CHUNK_SIZE
from repro.stream.scan import SourceStats, scan_source

__all__ = ["OutOfCoreHep", "OutOfCoreResult", "SourceStats", "scan_source"]


@dataclass
class OutOfCoreResult:
    """Everything an out-of-core run can report without a Graph in RAM."""

    parts: np.ndarray          # (m,) int32 per-edge partition ids
    k: int
    tau: float
    num_vertices: int
    num_edges: int
    chunk_size: int
    buffer_size: int | None
    breakdown: HepPhaseBreakdown
    spill_bytes: int
    loads: np.ndarray          # (k,) final per-partition edge counts
    replication_factor: float
    edge_balance: float
    projected_memory_bytes: int | None
    runtime_s: float

    @property
    def num_unassigned(self) -> int:
        """Number of edges left without a partition (should be zero)."""
        return int((self.parts < 0).sum())

    def to_assignment(self, graph) -> PartitionAssignment:
        """Attach the parts to an in-memory Graph (tests/analysis only)."""
        return PartitionAssignment(graph, self.k, self.parts)


class OutOfCoreHep:
    """HEP under an explicit memory budget, fed by a chunked edge source.

    Parameters
    ----------
    tau:
        Degree threshold factor.  ``None`` (the default) means 10.0
        unless ``memory_budget`` is given, in which case the budget
        selects the largest fitting ``tau`` from the Section 4.4 grid.
    memory_budget:
        Byte budget for HEP's in-memory structures, evaluated with the
        Section 4.2 formula (:mod:`repro.core.memory_model`).
    chunk_size:
        Edges per I/O chunk for every pass and the spill read-back.
    buffer_size:
        Buffered-scoring window for phase two; ``None`` keeps the exact
        per-edge stream order (bit-identical to in-memory HEP).
    spill_dir:
        Directory for the h2h spill file (system temp dir by default).
    spill_compression:
        ``None`` for the raw spill format, ``"zlib"`` for compressed
        frames (see :mod:`repro.stream.spill`) — smaller disk footprint
        for CPU spent inflating on read-back.
    prefetch:
        When > 0, wrap the source in a
        :class:`~repro.stream.reader.PrefetchingEdgeSource` holding at
        most this many decoded chunks ahead of each pass's consumer.
    mmap:
        Serve chunks from a zero-copy
        :class:`~repro.stream.shard.MmapEdgeSource` when the source is
        a flat binary edge file (bit-identical results, fewer copies).
    order, seed:
        Chunk order for sources that support reordering.
    metrics_workers:
        When > 1 and the source is a shard manifest or flat binary edge
        file, the counting and metrics passes run on this many worker
        processes (:mod:`repro.stream.parallel_scan`), bit-identically
        to the sequential sweeps.  ``memory_budget`` additionally
        bounds the metrics cover itself (column-blocked sweeps when the
        ``k x n``-bit cover would not fit).
    """

    def __init__(
        self,
        tau: float | None = None,
        alpha: float = 1.0,
        lam: float = 1.1,
        eps: float = 1.0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        buffer_size: int | None = None,
        spill_dir: str | None = None,
        spill_compression: str | None = None,
        memory_budget: int | None = None,
        tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID,
        id_bytes: int = 4,
        order: str = "natural",
        seed: int = 0,
        prefetch: int = 0,
        mmap: bool = False,
        metrics_workers: int = 0,
    ) -> None:
        if tau is not None and tau <= 0:
            raise ConfigurationError(f"tau must be positive, got {tau}")
        if memory_budget is not None and memory_budget < 1:
            raise ConfigurationError(
                f"memory_budget must be positive, got {memory_budget}"
            )
        if metrics_workers < 0:
            raise ConfigurationError(
                f"metrics_workers must be >= 0, got {metrics_workers}"
            )
        self.tau = tau
        self.alpha = alpha
        self.lam = lam
        self.eps = eps
        self.chunk_size = int(chunk_size)
        self.buffer_size = buffer_size
        self.spill_dir = spill_dir
        self.spill_compression = spill_compression
        self.prefetch = int(prefetch)
        self.mmap = bool(mmap)
        self.metrics_workers = int(metrics_workers)
        self.memory_budget = memory_budget
        self.tau_grid = tau_grid
        self.id_bytes = id_bytes
        self.order = order
        self.seed = seed
        self.last_result: OutOfCoreResult | None = None
        self.name = "HEP-ooc"

    # -- driver ------------------------------------------------------------

    def _job_spec(self, source, k: int):
        """Lower the constructor knobs to a runtime JobSpec.

        :class:`~repro.stream.workers.MultiWorkerHep` overrides the
        execution-shape fields on top of this spec.
        """
        from repro.runtime.spec import InputSpec, JobSpec

        return JobSpec(
            algo="HEP",
            k=int(k),
            input=InputSpec.from_source(
                source, chunk_size=self.chunk_size, order=self.order,
                seed=self.seed, prefetch=self.prefetch, mmap=self.mmap,
            ),
            algo_params=(("eps", self.eps), ("lam", self.lam)),
            alpha=self.alpha,
            seed=self.seed,
            tau=self.tau,
            memory_budget=self.memory_budget,
            tau_grid=tuple(self.tau_grid),
            id_bytes=self.id_bytes,
            buffer_size=self.buffer_size,
            spill_dir=self.spill_dir,
            spill_compression=self.spill_compression,
            metrics_workers=self.metrics_workers,
            mp_context=getattr(self, "mp_context", None),
        )

    def _absorb(self, outcome) -> None:
        """Hook: pick extra fields off the runtime result (subclasses)."""

    def partition(self, source, k: int) -> OutOfCoreResult:
        """Run the full pipeline; ``source`` is anything
        :func:`~repro.stream.reader.open_edge_source` accepts.

        Since PR 8 this is a thin shim over
        :func:`repro.runtime.api.run_job`: the constructor knobs become
        a :class:`~repro.runtime.spec.JobSpec`, the runtime executes the
        planned ``count -> select_tau -> split -> phase_one -> stream ->
        metrics`` stages, and the unified result converts back to the
        historical :class:`OutOfCoreResult` — pinned bit-identical to
        the pre-runtime pipeline by the equivalence suites.
        """
        # Deferred: repro.runtime.api pulls in the executor/stage layers,
        # which this module must not require at import time.
        from repro.runtime.api import run_job

        outcome = run_job(self._job_spec(source, k), source=source)
        self._absorb(outcome)
        result = outcome.to_out_of_core()
        self.last_result = result
        return result
