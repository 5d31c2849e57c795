"""Shared chunked passes: counting and quality metrics without a Graph.

Every out-of-core run needs the same two sweeps over an
:class:`~repro.stream.reader.EdgeChunkSource`:

* a **counting pass** (:func:`scan_source`) establishing exact degrees,
  the vertex-universe size and the edge count — the ``O(n)`` state that
  replaces holding the ``O(m)`` edge list in memory, and
* a **metrics pass** (:func:`chunked_quality`) computing replication
  factor and edge balance from a finished per-edge assignment with one
  more chunked sweep.

The metrics pass marks one bool ``k x n`` vertex cover block with the
shared kernel (:func:`~repro.partition.base.mark_cover`: one flat
scatter per endpoint column) and counts it with ``np.count_nonzero``.
The block costs ``k * n`` bytes.  When that exceeds a byte budget,
:func:`plan_cover_blocks` falls back to column-blocked sweeps: the
vertex universe is cut into ranges whose per-range block fits the
budget and the source is re-read once per range (the counts are exact
either way, so the reported metrics are bit-identical).

Each pass records one trace span (``count_pass``, ``metrics_pass``)
with an ``edges_scanned`` counter, whoever calls it.

Used by the runtime's count and metrics stages (both pipelines, in
process or with workers: :mod:`repro.runtime.stages`), by
:func:`repro.metrics.streamed_quality_report` and by the external sort
(:mod:`repro.stream.extsort`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, GraphFormatError
from repro.obs.tracer import get_tracer
from repro.partition.base import mark_cover
from repro.stream.reader import EdgeChunkSource

__all__ = [
    "SourceStats",
    "scan_source",
    "chunked_quality",
    "plan_cover_blocks",
    "cover_nbytes",
    "MAX_COVER_SWEEPS",
]


@dataclass(frozen=True)
class SourceStats:
    """What one counting pass over an edge source establishes."""

    num_vertices: int
    num_edges: int
    degrees: np.ndarray

    @property
    def mean_degree(self) -> float:
        """Mean degree ``2m / n`` (0.0 for an empty universe)."""
        if self.num_vertices == 0:
            return 0.0
        return 2.0 * self.num_edges / self.num_vertices


def scan_source(source: EdgeChunkSource) -> SourceStats:
    """Counting pass: exact degrees, ``n`` and ``m`` in one chunked sweep.

    The observed universe is reconciled with the source's declared
    ``num_vertices``.  A declared universe larger than the observed
    ``max id + 1`` grows the degree array (trailing isolated vertices
    are legal and keep the in-memory mean degree).  A declared universe
    *smaller* than an observed id is a corrupt source — some edge
    references a vertex the source claims not to have — and raises
    :class:`~repro.errors.GraphFormatError` instead of being silently
    ignored.
    """
    with get_tracer().span("count_pass") as span:
        degrees = np.zeros(0, dtype=np.int64)
        num_edges = 0
        for chunk in source:
            num_edges += chunk.num_edges
            pairs = chunk.pairs
            if pairs.shape[0] == 0:
                continue
            top = int(pairs.max()) + 1
            if top > degrees.size:
                grown = np.zeros(top, dtype=np.int64)
                grown[: degrees.size] = degrees
                degrees = grown
            degrees += np.bincount(
                pairs.ravel(), minlength=degrees.size
            ).astype(np.int64)
        span.add("edges_scanned", num_edges)
    n = degrees.size
    declared = source.num_vertices
    if declared is not None and declared < n:
        raise GraphFormatError(
            f"{source.describe()}: source declares num_vertices={declared} "
            f"but the edge stream references vertex id {n - 1}; the "
            f"declared universe is too small for its own edges"
        )
    if declared is not None and declared > n:
        grown = np.zeros(declared, dtype=np.int64)
        grown[:n] = degrees
        degrees, n = grown, declared
    return SourceStats(num_vertices=n, num_edges=num_edges, degrees=degrees)


def cover_nbytes(num_vertices: int, k: int) -> int:
    """Bytes one full bool ``k x n`` cover block occupies."""
    return k * num_vertices


#: most column blocks (= extra metrics sweeps) a budget may schedule; a
#: budget so small it would plan more is honored best-effort instead of
#: silently turning the metrics pass into thousands of re-reads
MAX_COVER_SWEEPS = 256


def plan_cover_blocks(
    num_vertices: int, k: int, memory_budget: int | None = None
) -> list[tuple[int, int]]:
    """Vertex column blocks ``[lo, hi)`` whose cover block fits a budget.

    With no budget — or when the full ``k * n``-byte cover already
    fits — the plan is one block spanning the whole universe (one
    metrics sweep).  Otherwise the universe is cut into equal ranges of
    at most ``max(1, budget // k)`` vertices, each costing one extra
    sweep over the source; per-block counts sum to exactly the full
    cover's, so the metrics stay bit-identical.

    The plan never exceeds :data:`MAX_COVER_SWEEPS` blocks: every extra
    block is a full re-read of the edge source, so a budget pathological
    enough to ask for more (e.g. a few KiB against a 10M-vertex, k=128
    cover) gets the smallest block size that stays within the sweep cap
    — bounded I/O at a documented budget overshoot, ``k * (hi - lo) <=
    max(budget, k * ceil(n / MAX_COVER_SWEEPS))`` bytes per block —
    rather than an unannounced multi-hour re-read schedule.
    """
    if k < 1:
        raise ConfigurationError(f"cover needs k >= 1, got {k}")
    if num_vertices == 0:
        return []
    if memory_budget is None or cover_nbytes(num_vertices, k) <= memory_budget:
        return [(0, num_vertices)]
    block = max(memory_budget // k, -(-num_vertices // MAX_COVER_SWEEPS))
    return [
        (lo, min(lo + block, num_vertices))
        for lo in range(0, num_vertices, block)
    ]


def chunked_quality(
    source: EdgeChunkSource,
    stats: SourceStats,
    k: int,
    parts: np.ndarray,
    memory_budget: int | None = None,
) -> tuple[float, float]:
    """Replication factor and edge balance from chunked metrics sweeps.

    The vertex covers are one bool ``k x n`` block marked by
    :func:`~repro.partition.base.mark_cover`; ``memory_budget`` bounds
    its ``k * n`` bytes by falling back to column-blocked sweeps
    (:func:`plan_cover_blocks`).
    Unassigned edges (``parts`` entry < 0) contribute to neither metric;
    an empty source reports ``(0.0, 1.0)`` — nothing is replicated and
    zero edges are perfectly balanced.
    """
    with get_tracer().span("metrics_pass") as span:
        span.add("edges_scanned", stats.num_edges)
        sizes = np.bincount(parts[parts >= 0], minlength=k)
        if stats.num_edges == 0:
            return 0.0, 1.0
        replicas = 0
        blocks = plan_cover_blocks(stats.num_vertices, k, memory_budget)
        for lo, hi in blocks:
            cover = np.zeros((k, hi - lo), dtype=bool)
            block_lo = lo if len(blocks) > 1 else None
            for chunk in source:
                mark_cover(cover, parts[chunk.eids], chunk.pairs, block_lo)
            replicas += int(np.count_nonzero(cover))
        covered = int((stats.degrees > 0).sum())
        rf = float(replicas / covered) if covered else 0.0
        balance = float(sizes.max() / (stats.num_edges / k))
        return rf, balance
