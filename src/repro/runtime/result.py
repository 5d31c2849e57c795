"""The result of a runtime partitioning job.

:class:`PartitionResult` is the one type every job returns, whatever
its pipeline (HEP or a registered algorithm) and whether it streamed in
process or on worker processes.  It carries the assignment, the
quality metrics, the HEP phase breakdown and worker report when the
pipeline produced them, and the provenance (``job_hash``,
``cache_hit``, ``stages_executed``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hep import HepPhaseBreakdown
from repro.runtime.spec import JobSpec

__all__ = ["PartitionResult"]


@dataclass
class PartitionResult:
    """Everything one runtime job can report, pipeline-independent."""

    spec: JobSpec
    algorithm: str             # result-facing name (e.g. HDRF, HEP, HDRF-mw2)
    parts: np.ndarray          # (m,) int32 per-edge partition ids
    k: int
    num_vertices: int
    num_edges: int
    chunk_size: int
    loads: np.ndarray          # (k,) final per-partition edge counts
    replication_factor: float
    edge_balance: float
    runtime_s: float
    passes: int = 1
    tau: float | None = None
    breakdown: HepPhaseBreakdown | None = None
    spill_bytes: int = 0
    projected_memory_bytes: int | None = None
    report: object | None = None      # MultiWorkerReport when BSP ran
    job_hash: str = ""
    cache_hit: bool = False
    stages_executed: tuple[str, ...] = ()

    @property
    def num_unassigned(self) -> int:
        """Number of edges left without a partition (should be zero)."""
        return int((self.parts < 0).sum())

    def to_assignment(self, graph):
        """Attach the parts to an in-memory Graph (tests/analysis only)."""
        from repro.partition.base import PartitionAssignment

        return PartitionAssignment(graph, self.k, self.parts)
