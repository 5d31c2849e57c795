"""Parallel HEP — the paper's future-work direction on parallelism.

See :mod:`repro.parallel.bsp_streaming` for the bulk-synchronous
parallel streaming phase, :func:`bsp_hdrf_stream` — the in-process
oracle that multi-worker HEP and HDRF jobs
(``run_job(make_job(..., workers=N))``) equal bit for bit;
:mod:`repro.parallel.kernel` holds the snapshot-scoring / delta-merge
kernels shared with the multi-process driver
(:mod:`repro.stream.workers`); :mod:`repro.parallel.shm` holds the
shared-memory state a BSP run's worker processes snapshot and commit
against.
"""

from repro.parallel.bsp_streaming import (
    BspStreamReport,
    bsp_hdrf_stream,
)
from repro.parallel.kernel import (
    apply_batch,
    apply_delta,
    contiguous_streams,
    place_batch_serialized,
    round_robin_streams,
    score_batch_on_snapshot,
    shard_round_robin_streams,
    superstep_is_safe,
)
from repro.parallel.shm import SharedState

__all__ = [
    "bsp_hdrf_stream",
    "BspStreamReport",
    "SharedState",
    "score_batch_on_snapshot",
    "superstep_is_safe",
    "place_batch_serialized",
    "apply_batch",
    "apply_delta",
    "round_robin_streams",
    "contiguous_streams",
    "shard_round_robin_streams",
]
