"""Shared chunked passes: counting and quality metrics without a Graph.

Every out-of-core run needs the same two sweeps over an
:class:`~repro.stream.reader.EdgeChunkSource`:

* a **counting pass** (:func:`scan_source`) establishing exact degrees,
  the vertex-universe size and the edge count — the ``O(n)`` state that
  replaces holding the ``O(m)`` edge list in memory, and
* a **metrics pass** (:func:`chunked_quality`) computing replication
  factor and edge balance from a finished per-edge assignment with one
  more chunked sweep.

The metrics pass tracks one vertex cover per partition as a genuine
bit-packed set (:class:`~repro._ds.bitset.PackedBitset` rows inside
:class:`PackedCover`) — ``k x n`` *bits*, ``k * ceil(n / 8)`` bytes,
8x smaller than the boolean matrix it replaced.  When even that exceeds
a byte budget, :func:`plan_cover_blocks` falls back to column-blocked
sweeps: the vertex universe is cut into ranges whose per-range cover
fits the budget and the source is re-read once per range (set-bit
totals are exact either way, so the reported metrics are bit-identical).

Both passes are pure order-independent reductions (degree counts are
summed, cover bits are OR-ed), which is what makes the worker-parallel
siblings in :mod:`repro.stream.parallel_scan` bit-identical to these
sequential references.

Used by the runtime's count and metrics stages (both pipelines, in
process or on workers: :mod:`repro.runtime.executor`) and by the
external sort (:mod:`repro.stream.extsort`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._ds.bitset import PackedBitset
from repro.errors import ConfigurationError, GraphFormatError
from repro.stream.reader import EdgeChunkSource

__all__ = [
    "SourceStats",
    "scan_source",
    "chunked_quality",
    "accumulate_degrees",
    "finalize_source_stats",
    "PackedCover",
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


def accumulate_degrees(degrees: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Add one chunk's endpoint counts into a growable degree array.

    Returns the (possibly reallocated) int64 degree array — the one
    chunk-step of the counting pass, shared verbatim by the sequential
    sweep and each parallel scan worker so their partial sums merge
    bit-identically.
    """
    if pairs.shape[0] == 0:
        return degrees
    top = int(pairs.max()) + 1
    if top > degrees.size:
        grown = np.zeros(top, dtype=np.int64)
        grown[: degrees.size] = degrees
        degrees = grown
    degrees += np.bincount(
        pairs.ravel(), minlength=degrees.size
    ).astype(np.int64)
    return degrees


def finalize_source_stats(
    degrees: np.ndarray, num_edges: int, declared: int | None, what: str
) -> SourceStats:
    """Reconcile observed degrees with a source's declared universe.

    A declared ``num_vertices`` larger than the observed ``max id + 1``
    grows the degree array (trailing isolated vertices are legal and
    keep the in-memory mean degree).  A declared universe *smaller* than
    an observed id is a corrupt source — some edge references a vertex
    the source claims not to have — and raises
    :class:`~repro.errors.GraphFormatError` instead of being silently
    ignored.
    """
    n = degrees.size
    if declared is not None and declared < n:
        raise GraphFormatError(
            f"{what}: source declares num_vertices={declared} but the "
            f"edge stream references vertex id {n - 1}; the declared "
            f"universe is too small for its own edges"
        )
    if declared is not None and declared > n:
        grown = np.zeros(declared, dtype=np.int64)
        grown[:n] = degrees
        degrees, n = grown, declared
    return SourceStats(num_vertices=n, num_edges=num_edges, degrees=degrees)


def scan_source(source: EdgeChunkSource) -> SourceStats:
    """Counting pass: exact degrees, ``n`` and ``m`` in one chunked sweep."""
    degrees = np.zeros(0, dtype=np.int64)
    num_edges = 0
    for chunk in source:
        num_edges += chunk.num_edges
        degrees = accumulate_degrees(degrees, chunk.pairs)
    return finalize_source_stats(
        degrees, num_edges, source.num_vertices, source.describe()
    )


def cover_nbytes(num_vertices: int, k: int) -> int:
    """Bytes one full bit-packed ``k x n`` cover occupies."""
    return k * ((num_vertices + 7) // 8)


#: most column blocks (= extra metrics sweeps) a budget may schedule; a
#: budget so small it would plan more is honored best-effort instead of
#: silently turning the metrics pass into thousands of re-reads
MAX_COVER_SWEEPS = 256


def plan_cover_blocks(
    num_vertices: int, k: int, memory_budget: int | None = None
) -> list[tuple[int, int]]:
    """Vertex column blocks ``[lo, hi)`` whose packed cover fits a budget.

    With no budget — or when the full ``k * ceil(n / 8)``-byte cover
    already fits — the plan is one block spanning the whole universe
    (one metrics sweep).  Otherwise the universe is cut into equal
    byte-aligned ranges of at most ``(budget // k) * 8`` vertices, each
    costing one extra sweep over the source; per-block set-bit counts
    sum to exactly the full cover's, so the metrics stay bit-identical.

    The plan never exceeds :data:`MAX_COVER_SWEEPS` blocks: every extra
    block is a full re-read of the edge source, so a budget pathological
    enough to ask for more (e.g. a few KiB against a 10M-vertex, k=128
    cover) gets the smallest block size that stays within the sweep cap
    — bounded I/O at a documented, slight budget overshoot — rather
    than an unannounced multi-hour re-read schedule.
    """
    if k < 1:
        raise ConfigurationError(f"cover needs k >= 1, got {k}")
    if num_vertices == 0:
        return []
    if memory_budget is None or cover_nbytes(num_vertices, k) <= memory_budget:
        return [(0, num_vertices)]
    block = max(8, (memory_budget // k) * 8)
    min_block = -(-num_vertices // MAX_COVER_SWEEPS)
    min_block = ((min_block + 7) // 8) * 8  # byte-aligned columns
    block = max(block, min_block)
    return [
        (lo, min(lo + block, num_vertices))
        for lo in range(0, num_vertices, block)
    ]


class PackedCover:
    """Per-partition vertex covers over one vertex range, as true bits.

    One :class:`~repro._ds.bitset.PackedBitset` row per partition over
    the universe ``[lo, hi)`` — ``k * ceil((hi - lo) / 8)`` bytes, the
    structure both the sequential metrics pass and each parallel scan
    worker accumulate into.  Merging partial covers is a plain word-wise
    OR (:meth:`union_update`), so the merge order never matters.
    """

    __slots__ = ("k", "lo", "hi", "words")

    def __init__(self, k: int, lo: int, hi: int) -> None:
        if k < 1:
            raise ConfigurationError(f"cover needs k >= 1, got {k}")
        if not 0 <= lo <= hi:
            raise ConfigurationError(f"bad vertex range [{lo}, {hi})")
        self.k = k
        self.lo = lo
        self.hi = hi
        self.words = np.zeros((k, (hi - lo + 7) // 8), dtype=np.uint8)

    @property
    def nbytes(self) -> int:
        """Actual packed footprint of all ``k`` covers."""
        return self.words.nbytes

    def part(self, p: int) -> PackedBitset:
        """Partition ``p``'s cover as a PackedBitset *view* (no copy)."""
        if not 0 <= p < self.k:
            raise IndexError(f"partition {p} outside [0, {self.k})")
        return PackedBitset(self.hi - self.lo, words=self.words[p])

    def mark_assignment(
        self, parts: np.ndarray, pairs: np.ndarray, eids: np.ndarray
    ) -> None:
        """OR one chunk's endpoint coverage into the per-part covers.

        ``UNASSIGNED`` (negative) edges are masked out — a partial
        assignment must not wrap to partition ``k - 1`` through negative
        indexing.  Endpoints outside ``[lo, hi)`` are ignored (they
        belong to another column block).
        """
        ps = np.asarray(parts[eids], dtype=np.int64)
        assigned = ps >= 0
        nbytes = self.words.shape[1]
        flat = self.words.reshape(-1)
        for col in (0, 1):
            vs = np.asarray(pairs[:, col], dtype=np.int64)
            sel = assigned & (vs >= self.lo) & (vs < self.hi)
            if not sel.any():
                continue
            rel = vs[sel] - self.lo
            lin = ps[sel] * nbytes + (rel >> 3)
            bits = rel & 7
            # Group by bit position: every scatter in one group ORs the
            # same mask, so duplicate byte indices are safe under
            # buffered fancy-index assignment (no slow np.bitwise_or.at).
            for b in range(8):
                hit = lin[bits == b]
                if hit.size:
                    flat[hit] |= np.uint8(1 << b)

    def union_update(self, words: "np.ndarray | bytes | memoryview") -> None:
        """OR another cover's packed words (same ``k`` and range) in."""
        other = np.frombuffer(words, dtype=np.uint8).reshape(self.words.shape)
        np.bitwise_or(self.words, other, out=self.words)

    def count(self) -> int:
        """Total set bits — the replica count this cover witnesses."""
        return sum(self.part(p).count() for p in range(self.k))


def chunked_quality(
    source: EdgeChunkSource,
    stats: SourceStats,
    k: int,
    parts: np.ndarray,
    memory_budget: int | None = None,
) -> tuple[float, float]:
    """Replication factor and edge balance from chunked metrics sweeps.

    The vertex covers are bit-packed (``k x n`` bits via
    :class:`PackedCover`); ``memory_budget`` bounds their bytes by
    falling back to column-blocked sweeps (:func:`plan_cover_blocks`).
    Unassigned edges (``parts`` entry < 0) contribute to neither metric;
    an empty source reports ``(0.0, 1.0)`` — nothing is replicated and
    zero edges are perfectly balanced.
    """
    sizes = np.bincount(parts[parts >= 0], minlength=k)
    if stats.num_edges == 0:
        return 0.0, 1.0
    replicas = 0
    for lo, hi in plan_cover_blocks(stats.num_vertices, k, memory_budget):
        cover = PackedCover(k, lo, hi)
        for chunk in source:
            cover.mark_assignment(parts, chunk.pairs, chunk.eids)
        replicas += cover.count()
    covered = int((stats.degrees > 0).sum())
    rf = float(replicas / covered) if covered else 0.0
    balance = float(sizes.max() / (stats.num_edges / k))
    return rf, balance
