"""Quality metrics for edge partitionings (Section 2 definitions).

In-memory assignments are scored by the classic functions below; a
finished *on-disk* assignment is scored out of core, in sequential
chunked sweeps, by :mod:`repro.metrics.streaming`.  Both mark their
vertex covers with the one kernel
:func:`~repro.partition.base.mark_cover`.
"""

from repro.metrics.balance import edge_balance, load_distribution, vertex_balance
from repro.metrics.communication import (
    boundary_vertices_per_partition,
    communication_volume,
    num_cut_vertices,
)
from repro.metrics.replication import (
    replicas_per_vertex,
    replication_factor,
    rf_by_degree_bucket,
)
from repro.metrics.report import PartitionReport, format_table, summarize
from repro.metrics.streaming import StreamedQuality, streamed_quality_report
from repro.metrics.validity import assert_valid, is_valid

__all__ = [
    "StreamedQuality",
    "streamed_quality_report",
    "replication_factor",
    "replicas_per_vertex",
    "rf_by_degree_bucket",
    "edge_balance",
    "vertex_balance",
    "load_distribution",
    "assert_valid",
    "is_valid",
    "PartitionReport",
    "summarize",
    "format_table",
    "communication_volume",
    "num_cut_vertices",
    "boundary_vertices_per_partition",
]
