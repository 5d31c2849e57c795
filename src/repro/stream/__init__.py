"""Out-of-core streaming I/O: chunked edge pipelines for memory-bounded partitioning.

The seed reproduction simulated the paper's memory knob — every code
path still materialized the full edge list in RAM.  This package makes
the constraint real, for HEP *and* for every streaming baseline the
paper compares against:

* :mod:`repro.stream.reader` — chunked :class:`EdgeChunkSource` blocks
  from text/binary edge files, dataset names or in-memory graphs,
* :mod:`repro.stream.scan` — the shared counting and metrics passes
  (``O(n)`` state instead of the ``O(m)`` edge list; the metrics cover
  is one bool ``k x n`` block with a budget-aware column-blocked
  fallback; both are sequential sweeps in the calling process,
  whatever the job's worker count),
* :mod:`repro.stream.records` — the one on-disk record layout every
  binary file here uses (edge pairs, spill triples, sort runs; raw or
  zlib-framed), with its writer and its checked reader,
* :mod:`repro.stream.spill` — the disk-backed h2h edge file NE++
  appends to instead of holding high/high edges in RAM,
* :mod:`repro.stream.driver` — the :class:`StreamingAlgorithm`
  adapters that run HDRF/Greedy/DBH/Grid/restreaming from chunked
  sources with bounded memory, bit-identical to their in-memory
  counterparts, and the in-memory baselines over the gathered stream,
* :mod:`repro.stream.extsort` — an external merge sort producing
  degree-ordered edge *files* in bounded memory,
* :mod:`repro.stream.shard` — the sharded edge-file format (JSON
  manifest + N edge-pair record files), the
  :class:`ShardedEdgeSource` reader, and the :class:`EdgeSegment`
  reader it shares with the worker processes,
* :mod:`repro.stream.workers` — multi-*worker* partitioning: ``N``
  OS processes each stream their shard assignment against a shared
  replica/load snapshot under the BSP schedule, bit-identical to the
  in-process :func:`~repro.parallel.bsp_streaming.bsp_hdrf_stream`
  (``partition --workers N --out-of-core``).  The snapshot lives in
  one :mod:`multiprocessing.shared_memory` segment
  (:class:`~repro.parallel.shm.SharedState`);
  :func:`run_bsp_shared`, the one way work reaches a worker process,
  forks the run's workers with their jobs and reaps them when it ends.

The stages that chain these pieces into HEP's budgeted pipeline and
the streaming-baseline pipeline live in :mod:`repro.runtime`; run a
job with ``run_job(make_job(...))``.
"""

from repro.stream.driver import StreamingAlgorithm
from repro.stream.extsort import EXTSORT_ORDERS, ExtSortResult, external_sort_edges
from repro.stream.reader import (
    DEFAULT_CHUNK_SIZE,
    BinaryFileEdgeSource,
    EdgeChunk,
    EdgeChunkSource,
    InMemoryEdgeSource,
    TextFileEdgeSource,
    open_edge_source,
    sniff_edge_format,
)
from repro.stream.scan import (
    SourceStats,
    chunked_quality,
    plan_cover_blocks,
    scan_source,
)
from repro.stream.shard import (
    MANIFEST_SUFFIX,
    EdgeSegment,
    ShardedEdgeSource,
    ShardManifest,
    ShardWriter,
    read_shard_manifest,
    write_sharded_edges,
)
from repro.stream.spill import SpillFile
from repro.stream.workers import (
    DEFAULT_WORKER_BATCH,
    MultiWorkerReport,
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
    "open_edge_source",
    "DEFAULT_CHUNK_SIZE",
    "SourceStats",
    "scan_source",
    "chunked_quality",
    "plan_cover_blocks",
    "SpillFile",
    "EdgeSegment",
    "run_bsp_shared",
    "StateService",
    "MultiWorkerReport",
    "plan_worker_segments",
    "split_spill_round_robin",
    "DEFAULT_WORKER_BATCH",
    "StreamingAlgorithm",
    "EXTSORT_ORDERS",
    "ExtSortResult",
    "external_sort_edges",
    "sniff_edge_format",
    "ShardManifest",
    "ShardWriter",
    "ShardedEdgeSource",
    "write_sharded_edges",
    "read_shard_manifest",
    "MANIFEST_SUFFIX",
]
