"""Quality metrics straight from chunked edge streams (no Graph in RAM).

The Section 2 metrics in this package score an in-memory
:class:`~repro.partition.base.PartitionAssignment`.  This module scores
a finished per-edge assignment against an *on-disk* edge stream instead
— the counting and metrics passes of :mod:`repro.stream.scan`, with the
bool ``k x n`` vertex cover block (``k * n`` bytes) and the
budget-aware column-blocked fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.stream.reader import DEFAULT_CHUNK_SIZE, open_edge_source
from repro.stream.scan import SourceStats, chunked_quality, scan_source

__all__ = ["StreamedQuality", "streamed_quality_report"]


@dataclass(frozen=True)
class StreamedQuality:
    """Stream-computed quality of one per-edge assignment."""

    replication_factor: float
    edge_balance: float
    k: int
    num_vertices: int
    num_edges: int
    num_unassigned: int
    mean_degree: float

    def row(self) -> dict[str, object]:
        """Render the report as one table row (rounded display values)."""
        return {
            "k": self.k,
            "RF": round(self.replication_factor, 4),
            "alpha": round(self.edge_balance, 4),
            "n": self.num_vertices,
            "m": self.num_edges,
            "unassigned": self.num_unassigned,
        }


def streamed_quality_report(
    source,
    parts: np.ndarray,
    k: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    memory_budget: int | None = None,
    stats: SourceStats | None = None,
) -> StreamedQuality:
    """Score an assignment against any edge source, out of core.

    ``source`` is anything :func:`~repro.stream.reader.open_edge_source`
    accepts; ``parts`` maps canonical edge id to partition (negative =
    unassigned, excluded from both metrics).  ``memory_budget`` bounds
    the metrics cover's bytes via column-blocked sweeps.  One counting
    pass plus one (or, blocked, several) metrics passes — the edge list
    is never resident.  A caller that already ran the counting pass
    hands its :class:`~repro.stream.scan.SourceStats` in as ``stats``
    and skips the redundant sweep.
    """
    if k < 1:
        raise ConfigurationError(f"streamed quality requires k >= 1, got {k}")
    parts = np.asarray(parts)
    opened = open_edge_source(source, chunk_size)
    if stats is None:
        stats = scan_source(opened)
    if parts.shape != (stats.num_edges,):
        raise ConfigurationError(
            f"parts has shape {parts.shape}, but the source streams "
            f"{stats.num_edges} edges"
        )
    if parts.size and int(parts.max()) >= k:
        raise ConfigurationError(
            f"parts references partition {int(parts.max())} but k={k}"
        )
    rf, balance = chunked_quality(opened, stats, k, parts, memory_budget)
    return StreamedQuality(
        replication_factor=rf,
        edge_balance=balance,
        k=k,
        num_vertices=stats.num_vertices,
        num_edges=stats.num_edges,
        num_unassigned=int((parts < 0).sum()),
        mean_degree=stats.mean_degree,
    )
