"""Universal out-of-core driver for the streaming baseline partitioners.

PR 1 made HEP's memory constraint real; this module extends the same
chunked I/O to every *streaming* baseline the paper compares against
(HDRF, Greedy, DBH, Grid, and multi-pass restreaming HDRF), so the
Tables 2–4 comparison can run under a genuine memory budget.  The key
observation is that all of these algorithms only ever need

* ``O(n + k)`` state (replica sets / incidence counters, loads, degrees)
  — exactly what :class:`~repro.partition.state.StreamingState` holds,
* the edges **in stream order**, which an
  :class:`~repro.stream.reader.EdgeChunkSource` yields in bounded chunks.

Each algorithm is wrapped in a small :class:`StreamingAlgorithm` adapter
that (a) builds its state from the counting-pass
:class:`~repro.stream.scan.SourceStats` and (b) consumes one chunk at a
time through the *same* kernel function the in-memory partitioner uses
(:func:`~repro.partition.hdrf.hdrf_stream`,
:func:`~repro.partition.greedy.greedy_stream`,
:func:`~repro.partition.dbh.dbh_assign`,
:func:`~repro.partition.grid.grid_stream`,
:func:`~repro.partition.restreaming.restream_block`).  With natural
chunk order the streamed result is therefore **bit-identical** to the
in-memory baseline — the equivalence property the test suite pins per
algorithm.

Restreaming demonstrates why :class:`EdgeChunkSource` iteration is
restartable: every refinement pass is one fresh chunked re-read of the
same source.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.partition.base import PartitionAssignment
from repro.partition.dbh import dbh_assign, repair_overflow
from repro.partition.greedy import greedy_stream
from repro.partition.grid import grid_cells, grid_shape, grid_stream
from repro.partition.hdrf import hdrf_stream
from repro.partition.restreaming import restream_block
from repro.partition.state import StreamingState
from repro.runtime.registry import (
    AlgorithmRegistryView,
    create_algorithm,
    register_streaming_algorithm,
)
from repro.stream.reader import DEFAULT_CHUNK_SIZE
from repro.stream.scan import SourceStats

__all__ = [
    "StreamingAlgorithm",
    "StreamingPartitionerDriver",
    "StreamedResult",
    "STREAMING_ALGORITHMS",
    "make_streaming_algorithm",
]


@dataclass
class StreamedResult:
    """Outcome of one out-of-core baseline run (no Graph in RAM)."""

    algorithm: str
    parts: np.ndarray          # (m,) int32 per-edge partition ids
    k: int
    num_vertices: int
    num_edges: int
    chunk_size: int
    passes: int
    loads: np.ndarray          # (k,) final per-partition edge counts
    replication_factor: float
    edge_balance: float
    runtime_s: float

    @property
    def num_unassigned(self) -> int:
        """Number of edges left without a partition (should be zero)."""
        return int((self.parts < 0).sum())

    def to_assignment(self, graph) -> PartitionAssignment:
        """Attach the parts to an in-memory Graph (tests/analysis only)."""
        return PartitionAssignment(graph, self.k, self.parts)


class StreamingAlgorithm(abc.ABC):
    """Adapter: one streaming baseline consuming edge chunks.

    Lifecycle: :meth:`prepare` once after the counting pass, then
    :meth:`process` per chunk (``passes`` sweeps over the whole source),
    then :meth:`finalize` on the completed parts array.
    """

    #: table name of the wrapped baseline
    name: str = "base"
    #: number of full sweeps over the source the algorithm needs
    passes: int = 1

    @abc.abstractmethod
    def prepare(self, stats: SourceStats, k: int, capacity: int) -> None:
        """Allocate the ``O(n + k)`` state from counting-pass statistics."""

    @abc.abstractmethod
    def process(
        self, pairs: np.ndarray, eids: np.ndarray, parts: np.ndarray
    ) -> None:
        """Consume one chunk, writing assignments into ``parts[eids]``."""

    def finalize(self, parts: np.ndarray, k: int, capacity: int) -> np.ndarray:
        """Post-stream fixup (e.g. overflow repair); default: identity."""
        return parts


@register_streaming_algorithm("HDRF")
class HdrfStreaming(StreamingAlgorithm):
    """HDRF over chunks — the standalone baseline, not HEP's phase two.

    ``exact_degrees=False`` reproduces the original HDRF setting (partial
    degrees accumulated while streaming), matching
    :class:`~repro.partition.hdrf.HdrfPartitioner`'s default.
    """

    name = "HDRF"

    def __init__(
        self, lam: float = 1.1, eps: float = 1.0, exact_degrees: bool = False
    ) -> None:
        self.lam = lam
        self.eps = eps
        self.exact_degrees = exact_degrees

    def prepare(self, stats: SourceStats, k: int, capacity: int) -> None:
        """Build fresh streaming state (partial or exact degrees)."""
        self.state = StreamingState(
            stats.num_vertices,
            k,
            capacity,
            exact_degrees=stats.degrees if self.exact_degrees else None,
        )

    def process(
        self, pairs: np.ndarray, eids: np.ndarray, parts: np.ndarray
    ) -> None:
        """Run Algorithm 4 over one chunk against the shared state."""
        hdrf_stream(self.state, pairs, eids, parts, lam=self.lam, eps=self.eps)


@register_streaming_algorithm("Greedy")
class GreedyStreaming(StreamingAlgorithm):
    """PowerGraph greedy placement over chunks (exact degrees upfront)."""

    name = "Greedy"

    def prepare(self, stats: SourceStats, k: int, capacity: int) -> None:
        """Build state with exact degrees and unassigned-edge counters."""
        self.state = StreamingState(
            stats.num_vertices, k, capacity, exact_degrees=stats.degrees
        )
        self.remaining = stats.degrees.copy()

    def process(
        self, pairs: np.ndarray, eids: np.ndarray, parts: np.ndarray
    ) -> None:
        """Place one chunk with the greedy case analysis."""
        greedy_stream(self.state, self.remaining, pairs, eids, parts)


@register_streaming_algorithm("DBH")
class DbhStreaming(StreamingAlgorithm):
    """Degree-based hashing over chunks (needs the counting-pass degrees)."""

    name = "DBH"

    def __init__(self, salt: int = 0) -> None:
        self.salt = salt

    def prepare(self, stats: SourceStats, k: int, capacity: int) -> None:
        """Keep the degree array; hashing itself is stateless."""
        self.degrees = stats.degrees
        self.k = k

    def process(
        self, pairs: np.ndarray, eids: np.ndarray, parts: np.ndarray
    ) -> None:
        """Hash one chunk of edges (pure elementwise assignment)."""
        parts[eids] = dbh_assign(pairs, self.degrees, self.k, self.salt)

    def finalize(self, parts: np.ndarray, k: int, capacity: int) -> np.ndarray:
        """Repair the rare capacity overflow, as the in-memory path does."""
        return repair_overflow(parts, k, capacity)


@register_streaming_algorithm("Grid")
class GridStreaming(StreamingAlgorithm):
    """2-D constrained hashing over chunks (load counters persist)."""

    name = "Grid"

    def __init__(self, salt: int = 0) -> None:
        self.salt = salt

    def prepare(self, stats: SourceStats, k: int, capacity: int) -> None:
        """Set up the grid shape and per-cell load counters."""
        self.rows, self.cols = grid_shape(k)
        self.loads = np.zeros(k, dtype=np.int64)

    def process(
        self, pairs: np.ndarray, eids: np.ndarray, parts: np.ndarray
    ) -> None:
        """Assign one chunk to the lighter of each edge's crossing cells."""
        cell_a, cell_b = grid_cells(pairs, self.rows, self.cols, self.salt)
        grid_stream(cell_a, cell_b, self.loads, eids, parts)

    def finalize(self, parts: np.ndarray, k: int, capacity: int) -> np.ndarray:
        """Repair the rare capacity overflow, as the in-memory path does."""
        return repair_overflow(parts, k, capacity)


@register_streaming_algorithm("Restreaming")
class RestreamingHdrfStreaming(StreamingAlgorithm):
    """Multi-pass restreaming HDRF: each pass is one re-read of the source."""

    name = "Restreaming"

    def __init__(self, passes: int = 3, lam: float = 1.1, eps: float = 1.0) -> None:
        if passes < 1:
            raise ConfigurationError(f"passes must be >= 1, got {passes}")
        self.passes = passes
        self.lam = lam
        self.eps = eps
        self.name = f"ReHDRF-{passes}"

    def prepare(self, stats: SourceStats, k: int, capacity: int) -> None:
        """Allocate incidence counters, loads and the degree array."""
        self.incidence = np.zeros((k, stats.num_vertices), dtype=np.int32)
        self.loads = np.zeros(k, dtype=np.int64)
        self.degrees = stats.degrees
        self.capacity = capacity

    def process(
        self, pairs: np.ndarray, eids: np.ndarray, parts: np.ndarray
    ) -> None:
        """Revise one chunk's assignments against the shared state."""
        restream_block(
            pairs,
            eids,
            self.incidence,
            self.loads,
            self.degrees,
            parts,
            self.capacity,
            self.lam,
            self.eps,
        )


#: live name -> class view of the decorator registry
#: (:mod:`repro.runtime.registry`); the pre-PR 8 mapping API, same names.
STREAMING_ALGORITHMS = AlgorithmRegistryView()


def make_streaming_algorithm(name: str, **kwargs) -> StreamingAlgorithm:
    """Instantiate a streaming algorithm adapter from its table name.

    Kept as the historical spelling of
    :func:`repro.runtime.registry.create_algorithm` (case-insensitive
    lookup, same error message on unknown names).
    """
    return create_algorithm(name, **kwargs)


class StreamingPartitionerDriver:
    """Run any streaming baseline out-of-core from a chunked edge source.

    Parameters
    ----------
    algorithm:
        A :class:`StreamingAlgorithm` instance or a name from
        :data:`STREAMING_ALGORITHMS` (``algo_kwargs`` are forwarded to
        the factory when a name is given).
    alpha:
        Balance slack for the per-partition capacity
        (:func:`~repro.partition.base.capacity_bound`).
    chunk_size:
        Edges per I/O chunk for every pass.
    order, seed:
        Chunk order for sources that support reordering (``"natural"``
        keeps bit-identity with the in-memory baselines).
    prefetch:
        When > 0, wrap the source in a
        :class:`~repro.stream.reader.PrefetchingEdgeSource` holding at
        most this many decoded chunks ahead of the consumer.
    mmap:
        Serve chunks from a zero-copy
        :class:`~repro.stream.shard.MmapEdgeSource` when the source is
        a flat binary edge file (results are bit-identical; this is a
        pure I/O optimization).
    metrics_workers:
        When > 1 and the source is a shard manifest or flat binary edge
        file, run the counting and metrics passes on this many worker
        processes (:mod:`repro.stream.parallel_scan`) — bit-identical
        results, wall-clock scaling with cores.  0/1 keeps the
        sequential sweeps.  Both passes share one warm
        :class:`~repro.stream.workers.PersistentWorkerPool`.
    """

    def __init__(
        self,
        algorithm: str | StreamingAlgorithm,
        alpha: float = 1.0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        order: str = "natural",
        seed: int = 0,
        prefetch: int = 0,
        mmap: bool = False,
        metrics_workers: int = 0,
        **algo_kwargs,
    ) -> None:
        if isinstance(algorithm, StreamingAlgorithm):
            if algo_kwargs:
                raise ConfigurationError(
                    "algo kwargs only apply when algorithm is given by name"
                )
            self.algorithm = algorithm
        else:
            self.algorithm = make_streaming_algorithm(algorithm, **algo_kwargs)
        if metrics_workers < 0:
            raise ConfigurationError(
                f"metrics_workers must be >= 0, got {metrics_workers}"
            )
        self.alpha = alpha
        self.chunk_size = int(chunk_size)
        self.order = order
        self.seed = seed
        self.prefetch = int(prefetch)
        self.mmap = bool(mmap)
        self.metrics_workers = int(metrics_workers)
        self.last_result: StreamedResult | None = None
        self.name = f"{self.algorithm.name}-ooc"

    def partition(self, source, k: int) -> StreamedResult:
        """Drive the algorithm over ``source``; bounded memory throughout.

        ``source`` is anything :func:`~repro.stream.reader.
        open_edge_source` accepts (edge file, dataset name, Graph, or an
        existing source).  Since PR 8 this is a thin shim: it builds a
        :class:`~repro.runtime.spec.JobSpec` from the constructor knobs
        and delegates to :func:`repro.runtime.api.run_job` (passing the
        already-validated adapter instance), then converts the unified
        result back to the historical :class:`StreamedResult` — pinned
        bit-identical to the pre-runtime driver by the equivalence
        suites.
        """
        # Deferred: repro.runtime.api pulls in the executor/stage layers,
        # which this module must not require at import time.
        from repro.runtime.api import run_job
        from repro.runtime.registry import (
            algorithm_params,
            registered_algorithm_name,
        )
        from repro.runtime.spec import InputSpec, JobSpec

        name = registered_algorithm_name(self.algorithm) or self.algorithm.name
        params = algorithm_params(self.algorithm) or ()
        spec = JobSpec(
            algo=name,
            k=int(k),
            input=InputSpec.from_source(
                source, chunk_size=self.chunk_size, order=self.order,
                seed=self.seed, prefetch=self.prefetch, mmap=self.mmap,
            ),
            algo_params=params,
            alpha=self.alpha,
            seed=self.seed,
            metrics_workers=self.metrics_workers,
        )
        outcome = run_job(spec, source=source, algorithm=self.algorithm)
        result = outcome.to_streamed()
        self.last_result = result
        return result
