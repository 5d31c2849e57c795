"""The registered streaming baselines: HDRF, Greedy, DBH, Grid, restreaming.

Every *streaming* baseline the paper compares against runs out of core
through :func:`repro.runtime.api.run_job`, so the Tables 2–4
comparison can run under a genuine memory budget.  The key observation
is that all of these algorithms only ever need

* ``O(n + k)`` state (replica sets / incidence counters, loads, degrees)
  — exactly what :class:`~repro.partition.state.StreamingState` holds,
* the edges **in stream order**, which an
  :class:`~repro.stream.reader.EdgeChunkSource` yields in bounded chunks.

Each algorithm is a small :class:`StreamingAlgorithm` adapter,
registered by name with
:func:`~repro.runtime.registry.register_streaming_algorithm`, that
(a) builds its state from the counting-pass
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

import numpy as np

from repro.errors import ConfigurationError
from repro.partition.dbh import dbh_assign, repair_overflow
from repro.partition.greedy import greedy_stream
from repro.partition.grid import grid_cells, grid_shape, grid_stream
from repro.partition.hdrf import hdrf_stream
from repro.partition.restreaming import restream_block
from repro.partition.state import StreamingState
from repro.runtime.registry import register_streaming_algorithm
from repro.stream.scan import SourceStats

__all__ = ["StreamingAlgorithm"]


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
