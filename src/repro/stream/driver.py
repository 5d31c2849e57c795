"""The registered job algorithms: every baseline the paper compares against.

The *streaming* baselines run out of core through
:func:`repro.runtime.api.run_job`, so the Tables 2–4 comparison can run
under a genuine memory budget.  They only ever need

* ``O(n + k)`` state (replica sets / incidence counters, loads, degrees)
  — exactly what :class:`~repro.partition.state.StreamingState` holds,
* the edges **in stream order**, which an
  :class:`~repro.stream.reader.EdgeChunkSource` yields in bounded chunks.

Each algorithm is a small :class:`StreamingAlgorithm` adapter,
registered by name with
:func:`~repro.runtime.registry.register_streaming_algorithm`, that
(a) builds its state from the counting-pass
:class:`~repro.stream.scan.SourceStats` and (b) consumes one chunk at a
time through its kernel
(:func:`~repro.partition.hdrf.hdrf_stream`,
:func:`~repro.partition.greedy.greedy_stream`,
:func:`~repro.partition.dbh.dbh_assign`,
:func:`~repro.partition.grid.grid_stream`,
:func:`~repro.partition.restreaming.restream_block`).  These adapters
are the only implementation of the streaming baselines: a loaded Graph
runs through them too.  With natural chunk order the result is
**bit-identical** to one kernel call over the whole edge array — the
equivalence property the test suite pins per algorithm.  The in-memory
baselines (NE, NE++, SNE, DNE, METIS, ADWISE, Random) are
:class:`InMemoryBaseline` adapters: they gather the stream, holding
``O(m)``, and return their class's parts for the gathered graph.

Restreaming demonstrates why :class:`EdgeChunkSource` iteration is
restartable: every refinement pass is one fresh chunked re-read of the
same source.
"""

from __future__ import annotations

import abc
import inspect

import numpy as np

from repro.core.ne_plus_plus import NePlusPlusPartitioner
from repro.errors import ConfigurationError
from repro.graph.edgelist import Graph
from repro.partition.adwise import AdwisePartitioner
from repro.partition.dbh import dbh_assign, repair_overflow
from repro.partition.dne import DnePartitioner
from repro.partition.greedy import greedy_stream
from repro.partition.grid import grid_cells, grid_shape, grid_stream
from repro.partition.hdrf import hdrf_stream
from repro.partition.metis import MetisPartitioner
from repro.partition.ne import NePartitioner
from repro.partition.random_stream import RandomStreamPartitioner
from repro.partition.restreaming import restream_block
from repro.partition.sne import SnePartitioner
from repro.partition.state import StreamingState
from repro.runtime.registry import register_streaming_algorithm
from repro.stream.scan import SourceStats

__all__ = ["InMemoryBaseline", "StreamingAlgorithm"]


class StreamingAlgorithm(abc.ABC):
    """Adapter: one registered algorithm consuming edge chunks.

    Lifecycle: :meth:`prepare` once after the counting pass, then
    :meth:`process` per chunk (``passes`` sweeps over the whole source),
    then :meth:`finalize` on the completed parts array.
    """

    #: table name of the wrapped baseline
    name: str = "base"
    #: number of full sweeps over the source the algorithm needs
    passes: int = 1
    #: whether the adapter gathers the stream and partitions it in
    #: memory, so that neither the stream order nor the job's alpha
    #: reaches the algorithm (:class:`InMemoryBaseline`)
    gathers: bool = False

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

    ``exact_degrees=False`` (the default) reproduces the original HDRF
    setting: partial degrees accumulated while streaming.
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
        """Repair the rare capacity overflow (:func:`repair_overflow`)."""
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
        """Repair the rare capacity overflow (:func:`repair_overflow`)."""
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


class InMemoryBaseline(StreamingAlgorithm):
    """Adapter: an in-memory :class:`~repro.partition.base.Partitioner`.

    The sweep stores each chunk at its edge ids, which undoes any stream
    order, and :meth:`finalize` runs the class on the gathered graph.
    Each class applies its own balance bound (DNE's is 1.05), so
    :func:`~repro.runtime.api.validate_spec` refuses a job order other
    than natural and an ``alpha`` other than 1.0 rather than drop them.
    """

    gathers = True
    #: the wrapped :class:`~repro.partition.base.Partitioner` subclass
    partitioner: type

    def prepare(self, stats: SourceStats, k: int, capacity: int) -> None:
        """Allocate the ``(m, 2)`` edge array the sweep fills."""
        self.edges = np.empty((stats.num_edges, 2), dtype=np.int64)
        self.num_vertices = stats.num_vertices

    def process(
        self, pairs: np.ndarray, eids: np.ndarray, parts: np.ndarray
    ) -> None:
        """Store one chunk at its edge ids."""
        self.edges[eids] = pairs

    def finalize(self, parts: np.ndarray, k: int, capacity: int) -> np.ndarray:
        """The wrapped class's parts for the gathered graph."""
        graph = Graph(self.edges, self.num_vertices)
        return self.partitioner().partition(graph, k).parts


def _register_in_memory_baselines() -> None:
    """Register one :class:`InMemoryBaseline` per in-memory table name.

    ``--algo help`` shows the first line of the class's docstring.
    """
    for name, partitioner in (
        ("NE", NePartitioner), ("NE++", NePlusPlusPartitioner),
        ("SNE", SnePartitioner), ("DNE", DnePartitioner),
        ("METIS", MetisPartitioner), ("ADWISE", AdwisePartitioner),
        ("Random", RandomStreamPartitioner),
    ):
        summary = inspect.getdoc(partitioner).splitlines()[0]
        register_streaming_algorithm(name)(type(
            f"{partitioner.__name__}Baseline", (InMemoryBaseline,),
            {"__doc__": f"In memory: {summary}", "name": name,
             "partitioner": partitioner},
        ))


_register_in_memory_baselines()
