"""External sort: degree-ordered edge *files* in bounded memory.

In-memory experiments reorder streams via
:func:`repro.graph.ordering.edge_order`, which needs the whole edge
list.  Out-of-core, the same orderings have to be materialized as a new
edge *file*.  This module implements the classic two-phase external
merge sort:

1. **Run generation** — one chunked sweep over the source; each chunk is
   keyed (from the counting-pass degree array, ``O(n)`` memory), sorted
   stably in memory and written to a temporary *run* file of
   :data:`~repro.stream.records.SORT_RUNS` ``(key, eid, u, v)`` int64
   records.
2. **Merge** — a k-way heap merge over buffered run readers streams the
   globally sorted sequence straight into a flat ``<u4`` binary edge
   list, the format :class:`~repro.stream.reader.BinaryFileEdgeSource`
   and :func:`repro.graph.edgelist.read_binary_edgelist` consume.

Runs and output alike are written and read through
:mod:`repro.stream.records`.

Records carry the canonical eid so ties break exactly like the stable
``np.argsort`` in ``edge_order`` — the output file's natural order
*is* ``graph.edges[edge_order(graph, order)]``, which the test suite
pins.  Memory is bounded by ``chunk_size`` edges per run plus one
``merge_buffer`` block per run during the merge.

Supported orderings are the degree-derived ones (``degree``,
``adversarial``) plus ``natural`` (a plain bounded-memory re-encode):
``random``/``bfs`` keys need global structures an external pass cannot
bound and are rejected.
"""

from __future__ import annotations

import heapq
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError, GraphFormatError
from repro.obs.tracer import get_tracer
from repro.stream.reader import DEFAULT_CHUNK_SIZE, open_edge_source
from repro.stream.records import (
    EDGE_PAIRS,
    SORT_RUNS,
    RecordWriter,
    read_records,
)
from repro.stream.scan import SourceStats, scan_source

__all__ = ["external_sort_edges", "ExtSortResult", "EXTSORT_ORDERS"]

#: orderings an external pass can realize from the degree array alone
EXTSORT_ORDERS = ("natural", "degree", "adversarial")

#: records read back per run per refill during the merge
DEFAULT_MERGE_BUFFER = 1 << 14

#: maximum run files merged (and held open) at once; when run
#: generation produces more, groups are pre-merged into intermediate
#: runs so the file-descriptor usage stays bounded on huge inputs
MAX_OPEN_RUNS = 256


@dataclass(frozen=True)
class ExtSortResult:
    """Summary of one external-sort pass.

    ``path`` is the output edge file — or, when ``num_shards`` > 0, the
    shard *manifest* the sorted stream was split into.
    """

    path: Path
    order: str
    num_edges: int
    num_vertices: int
    num_runs: int
    run_bytes: int
    num_shards: int = 0
    compression: str | None = None

    def __str__(self) -> str:
        sharded = (
            f", {self.num_shards} shards" if self.num_shards else ""
        )
        return (
            f"{self.path} ({self.order} order, {self.num_edges:,} edges, "
            f"{self.num_runs} runs, {self.run_bytes:,} temp bytes"
            f"{sharded})"
        )


def _edge_keys(pairs: np.ndarray, degrees: np.ndarray, order: str) -> np.ndarray:
    """Sort key per edge, matching ``edge_order``'s key construction."""
    du = degrees[pairs[:, 0]]
    dv = degrees[pairs[:, 1]]
    if order == "degree":
        return -np.minimum(du, dv)
    if order == "adversarial":
        return np.maximum(du, dv)
    raise ConfigurationError(
        f"external sort cannot realize order {order!r}; "
        f"available: {', '.join(EXTSORT_ORDERS)}"
    )


def _write_run(
    chunk_pairs: np.ndarray,
    chunk_eids: np.ndarray,
    keys: np.ndarray,
    run_dir: Path,
    index: int,
) -> tuple[Path, int]:
    """Sort one chunk by (key, eid) and write it as a run file.

    Returns the run's path and record count.
    """
    # Sort on the eid as secondary key explicitly (not just a stable
    # key-only sort): shuffled/reordered sources deliver chunks whose
    # eids are permuted, and both the edge_order tie-break equivalence
    # and heapq.merge's sorted-input precondition need (key, eid) order.
    rank = np.lexsort((chunk_eids, keys))
    records = np.empty((rank.size, SORT_RUNS.width), dtype=np.int64)
    records[:, 0] = keys[rank]
    records[:, 1] = chunk_eids[rank]
    records[:, 2:] = chunk_pairs[rank]
    path = run_dir / f"run-{index:06d}.bin"
    with RecordWriter(path, SORT_RUNS) as writer:
        writer.append(records)
    return path, rank.size


def _iter_run(
    run: tuple[Path, int], buffer_records: int
) -> Iterator[tuple[int, int, int, int]]:
    """Yield ``(key, eid, u, v)`` tuples from a run file in bounded blocks."""
    path, count = run
    blocks = read_records(path, SORT_RUNS, count, chunk_size=buffer_records)
    for block in blocks:
        yield from map(tuple, block.tolist())


def _collapse_runs(
    runs: list[tuple[Path, int]], run_dir: Path, merge_buffer: int,
    max_open: int,
) -> list[tuple[Path, int]]:
    """Pre-merge run groups until at most ``max_open`` runs remain.

    Each level merges ``max_open`` runs into one intermediate run file
    (deleting its inputs), so the final merge never holds more than
    ``max_open`` descriptors open regardless of input size.
    """
    level = 0
    while len(runs) > max_open:
        collapsed: list[tuple[Path, int]] = []
        for g, start in enumerate(range(0, len(runs), max_open)):
            group = runs[start : start + max_open]
            if len(group) == 1:
                collapsed.append(group[0])
                continue
            target = run_dir / f"merge-{level:02d}-{g:06d}.bin"
            merged = heapq.merge(
                *(_iter_run(run, merge_buffer) for run in group)
            )
            with RecordWriter(target, SORT_RUNS) as out:
                buf: list[tuple[int, int, int, int]] = []
                for record in merged:
                    buf.append(record)
                    if len(buf) >= merge_buffer:
                        out.append(buf)
                        buf = []
                out.append(buf)
            for path, _ in group:
                path.unlink()
            collapsed.append((target, sum(count for _, count in group)))
        runs = collapsed
        level += 1
    return runs


class _FlatFileSink:
    """Single-file output: flat little-endian uint32 pairs.

    The file is opened **lazily** on the first append, so a sort that
    fails during the counting scan or run generation never truncates a
    pre-existing output file.
    """

    def __init__(self, out_path: Path) -> None:
        self.path = out_path
        self._writer: RecordWriter | None = None

    def append(self, pairs: np.ndarray) -> None:
        """Encode one block of ``(u, v)`` pairs."""
        if self._writer is None:
            self._writer = RecordWriter(self.path, EDGE_PAIRS)
        self._writer.append(pairs)

    def close(self) -> Path:
        """Close the file (creating it for empty streams); return its path."""
        if self._writer is None:
            self._writer = RecordWriter(self.path, EDGE_PAIRS)
        self._writer.close()
        return self.path

    def abort(self) -> None:
        """Release the handle after a failure without finalizing."""
        if self._writer is not None:
            self._writer.close()


class _ShardSink:
    """Sharded output: manifest + shard files via :class:`ShardWriter`."""

    def __init__(
        self,
        out_path: Path,
        num_edges: int,
        num_vertices: int,
        num_shards: int,
        compression: str | None,
    ) -> None:
        from repro.stream.shard import ShardWriter

        self._writer = ShardWriter(
            out_path,
            num_edges=num_edges,
            num_shards=num_shards,
            compression=compression,
            num_vertices=num_vertices,
        )

    def append(self, pairs: np.ndarray) -> None:
        """Forward one block to the shard writer."""
        self._writer.append(np.ascontiguousarray(pairs))

    def close(self) -> Path:
        """Write the manifest and return its path."""
        return self._writer.close().path

    def abort(self) -> None:
        """Release shard handles after a failure (no manifest is written)."""
        self._writer.abort()


def _make_sink(
    out_path: Path,
    stats: SourceStats,
    num_shards: int | None,
    compression: str | None,
):
    """Pick the output encoding: one flat file or a sharded set."""
    if num_shards is None:
        if compression is not None:
            raise ConfigurationError(
                "compression requires sharded output (pass num_shards; "
                "the flat binary edge-list format has no framing)"
            )
        return _FlatFileSink(out_path)
    return _ShardSink(
        out_path, stats.num_edges, stats.num_vertices, num_shards, compression
    )


def external_sort_edges(
    source,
    out_path: str | os.PathLike,
    order: str = "degree",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    tmp_dir: str | os.PathLike | None = None,
    merge_buffer: int = DEFAULT_MERGE_BUFFER,
    num_shards: int | None = None,
    compression: str | None = None,
) -> ExtSortResult:
    """Write ``source``'s edges to ``out_path`` in ``order``, out-of-core.

    ``source`` is anything :func:`~repro.stream.reader.open_edge_source`
    accepts.  The output is a flat little-endian uint32 binary edge list
    whose *natural* order realizes the requested degree-derived ordering
    — ready for :class:`~repro.stream.reader.BinaryFileEdgeSource` or the
    out-of-core drivers.  With ``num_shards`` the sorted stream is split
    into a sharded edge-file set instead (``out_path`` becomes the
    manifest; ``compression="zlib"`` selects framed shards), so
    degree-ordered files are produced pre-sharded for the
    :class:`~repro.stream.shard.ShardedEdgeSource` reader.  Peak memory
    is ``O(n + chunk_size + runs * merge_buffer)``; the full edge list
    is never resident.
    """
    if order not in EXTSORT_ORDERS:
        raise ConfigurationError(
            f"external sort cannot realize order {order!r}; "
            f"available: {', '.join(EXTSORT_ORDERS)}"
        )
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    if merge_buffer < 1:
        raise ConfigurationError(
            f"merge_buffer must be >= 1, got {merge_buffer}"
        )
    if num_shards is not None and num_shards < 1:
        raise ConfigurationError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    out_path = Path(out_path)
    if (
        isinstance(source, (str, os.PathLike))
        and Path(source).exists()
        and Path(source).resolve() == out_path.resolve()
    ):
        raise ConfigurationError(
            "external sort cannot write over its own input "
            f"({out_path}); choose a different output path"
        )
    tracer = get_tracer()
    with tracer.span(
        "extsort", order=order, source=str(source), out=str(out_path)
    ):
        src = open_edge_source(source, chunk_size)
        stats = scan_source(src)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        if stats.num_vertices > 2**32:
            raise GraphFormatError(
                "vertex ids exceed the uint32 binary edge-list format"
            )
        sink = _make_sink(out_path, stats, num_shards, compression)

        try:
            if order == "natural":
                return _reencode_natural(
                    src, stats, sink, num_shards, compression
                )

            with tempfile.TemporaryDirectory(
                prefix="extsort-", dir=tmp_dir
            ) as run_dir_name:
                run_dir = Path(run_dir_name)
                runs: list[tuple[Path, int]] = []
                with tracer.span("run_generation") as span:
                    for chunk in src:
                        if chunk.num_edges == 0:
                            continue
                        keys = _edge_keys(chunk.pairs, stats.degrees, order)
                        runs.append(
                            _write_run(
                                chunk.pairs, chunk.eids, keys, run_dir,
                                len(runs),
                            )
                        )
                        span.add("edges_scanned", chunk.num_edges)
                    run_bytes = sum(path.stat().st_size for path, _ in runs)
                    num_runs = len(runs)
                    span.add("num_runs", num_runs)
                    span.add("run_bytes", run_bytes)
                with tracer.span("collapse_runs", max_open=MAX_OPEN_RUNS):
                    runs = _collapse_runs(
                        runs, run_dir, merge_buffer, MAX_OPEN_RUNS
                    )
                with tracer.span("merge_runs", runs=len(runs)) as span:
                    merged = heapq.merge(
                        *(_iter_run(run, merge_buffer) for run in runs)
                    )
                    written = 0
                    buf: list[tuple[int, int]] = []
                    for _key, _eid, u, v in merged:
                        buf.append((u, v))
                        if len(buf) >= chunk_size:
                            sink.append(np.asarray(buf, dtype=np.int64))
                            written += len(buf)
                            buf = []
                    if buf:
                        sink.append(np.asarray(buf, dtype=np.int64))
                        written += len(buf)
                    span.add("edges_scanned", written)
            if written != stats.num_edges:
                raise GraphFormatError(
                    f"external sort wrote {written} of {stats.num_edges} edges"
                )
            with tracer.span("finalize"):
                final_path = sink.close()
        except BaseException:
            sink.abort()
            raise
    return ExtSortResult(
        path=final_path,
        order=order,
        num_edges=stats.num_edges,
        num_vertices=stats.num_vertices,
        num_runs=num_runs,
        run_bytes=run_bytes,
        num_shards=num_shards or 0,
        compression=compression,
    )


def _reencode_natural(
    src,
    stats: SourceStats,
    sink,
    num_shards: int | None,
    compression: str | None,
) -> ExtSortResult:
    """Degenerate case: copy the stream to the sink in its existing order."""
    written = 0
    for chunk in src:
        sink.append(chunk.pairs)
        written += chunk.num_edges
    if written != stats.num_edges:
        raise GraphFormatError(
            f"external sort wrote {written} of {stats.num_edges} edges"
        )
    final_path = sink.close()
    return ExtSortResult(
        path=final_path,
        order="natural",
        num_edges=stats.num_edges,
        num_vertices=stats.num_vertices,
        num_runs=0,
        run_bytes=0,
        num_shards=num_shards or 0,
        compression=compression,
    )
