"""Out-of-core streaming I/O: chunked edge pipelines for memory-bounded partitioning.

The seed reproduction simulated the paper's memory knob — every code
path still materialized the full edge list in RAM.  This package makes
the constraint real, for HEP *and* for every streaming baseline the
paper compares against:

* :mod:`repro.stream.reader` — chunked :class:`EdgeChunkSource` blocks
  from text/binary edge files, dataset names or in-memory graphs, with
  an optional background-thread :class:`PrefetchingEdgeSource` wrapper
  so decode overlaps scoring,
* :mod:`repro.stream.scan` — the shared counting and metrics passes
  (``O(n)`` state instead of the ``O(m)`` edge list; the metrics cover
  is bit-packed — ``k x n`` true bits — with a budget-aware
  column-blocked fallback),
* :mod:`repro.stream.parallel_scan` — the same two passes fanned out
  as jobs on a warm worker pool (degrees summed, covers OR-ed),
  bit-identical to the sequential sweeps (``--metrics-workers N``),
* :mod:`repro.stream.spill` — the disk-backed h2h edge file NE++
  appends to instead of holding high/high edges in RAM (raw or
  zlib-framed on-disk format),
* :mod:`repro.stream.buffered` — a buffered scoring window for phase
  two (quality/throughput knob ``buffer_size``),
* :mod:`repro.stream.driver` — the :class:`StreamingAlgorithm`
  adapters that run HDRF/Greedy/DBH/Grid/restreaming from chunked
  sources with bounded memory, bit-identical to their in-memory
  counterparts,
* :mod:`repro.stream.extsort` — an external merge sort producing
  degree-ordered edge *files* in bounded memory,
* :mod:`repro.stream.shard` — the sharded edge-file format (JSON
  manifest + N flat or zlib-framed shard files) with a concurrent
  :class:`ShardedEdgeSource` reader and a zero-copy
  :class:`MmapEdgeSource` for uncompressed single files,
* :mod:`repro.stream.workers` — multi-*worker* partitioning: ``N``
  OS processes each stream their shard assignment against a shared
  replica/load snapshot under the BSP schedule, bit-identical to the
  in-process :func:`~repro.parallel.bsp_streaming.bsp_hdrf_stream`
  (``partition --workers N --out-of-core``).  The snapshot lives in
  one :mod:`multiprocessing.shared_memory` segment
  (:class:`~repro.parallel.shm.SharedState`) served to a warm
  :class:`PersistentWorkerPool`, the one way work reaches a worker
  process.

The stages that chain these pieces into HEP's budgeted pipeline and
the streaming-baseline pipeline live in :mod:`repro.runtime`; run a
job with ``run_job(make_job(...))``.
"""

from repro.stream.buffered import buffered_hdrf_stream, stream_chunks_through_hdrf
from repro.stream.driver import StreamingAlgorithm
from repro.stream.extsort import EXTSORT_ORDERS, ExtSortResult, external_sort_edges
from repro.stream.parallel_scan import (
    scan_quality,
    scan_stats,
    supports_parallel_scan,
)
from repro.stream.reader import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_PREFETCH_DEPTH,
    BinaryFileEdgeSource,
    EdgeChunk,
    EdgeChunkSource,
    InMemoryEdgeSource,
    PrefetchingEdgeSource,
    TextFileEdgeSource,
    open_edge_source,
    sniff_edge_format,
)
from repro.stream.scan import (
    PackedCover,
    SourceStats,
    chunked_quality,
    plan_cover_blocks,
    scan_source,
)
from repro.stream.shard import (
    MANIFEST_SUFFIX,
    MmapEdgeSource,
    ShardedEdgeSource,
    ShardManifest,
    ShardWriter,
    read_shard_manifest,
    write_sharded_edges,
)
from repro.stream.spill import SpillFile, read_spill_chunks, read_spill_header
from repro.stream.workers import (
    DEFAULT_WORKER_BATCH,
    EdgeSegment,
    MultiWorkerReport,
    PersistentWorkerPool,
    StateService,
    plan_worker_segments,
    run_bsp_shared,
    split_spill_round_robin,
)

__all__ = [
    "EdgeChunk",
    "EdgeChunkSource",
    "InMemoryEdgeSource",
    "BinaryFileEdgeSource",
    "TextFileEdgeSource",
    "PrefetchingEdgeSource",
    "open_edge_source",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_PREFETCH_DEPTH",
    "SourceStats",
    "scan_source",
    "chunked_quality",
    "PackedCover",
    "plan_cover_blocks",
    "scan_stats",
    "scan_quality",
    "supports_parallel_scan",
    "SpillFile",
    "read_spill_header",
    "read_spill_chunks",
    "EdgeSegment",
    "PersistentWorkerPool",
    "run_bsp_shared",
    "StateService",
    "MultiWorkerReport",
    "plan_worker_segments",
    "split_spill_round_robin",
    "DEFAULT_WORKER_BATCH",
    "buffered_hdrf_stream",
    "stream_chunks_through_hdrf",
    "StreamingAlgorithm",
    "EXTSORT_ORDERS",
    "ExtSortResult",
    "external_sort_edges",
    "sniff_edge_format",
    "ShardManifest",
    "ShardWriter",
    "ShardedEdgeSource",
    "MmapEdgeSource",
    "write_sharded_edges",
    "read_shard_manifest",
    "MANIFEST_SUFFIX",
]
