"""Edge partitioners: framework, streaming kernels and in-memory baselines.

The hybrid system itself (HEP / NE++) lives in :mod:`repro.core`.  Of
the seven baseline families the paper compares against, the streaming
ones (HDRF, Greedy, DBH, Grid, plus restreaming) are kernels here —
:func:`hdrf_stream`, :func:`~repro.partition.greedy.greedy_stream`,
:func:`~repro.partition.dbh.dbh_assign`,
:func:`~repro.partition.grid.grid_stream`,
:func:`~repro.partition.restreaming.restream_block` — and the in-memory
ones (NE, SNE, DNE, METIS, ADWISE, Random) are :class:`Partitioner`
classes.  The registered adapters in :mod:`repro.stream.driver` run
both kinds as jobs through :func:`repro.runtime.api.run_job`.
"""

from repro.partition.adwise import AdwisePartitioner
from repro.partition.base import (
    PartitionAssignment,
    Partitioner,
    capacity_bound,
)
from repro.partition.dne import DnePartitioner
from repro.partition.hdrf import hdrf_stream
from repro.partition.metis import MetisPartitioner
from repro.partition.ne import NePartitioner
from repro.partition.random_stream import RandomStreamPartitioner, random_stream
from repro.partition.simple_hybrid import SimpleHybridPartitioner
from repro.partition.sne import SnePartitioner
from repro.partition.state import StreamingState

__all__ = [
    "Partitioner",
    "PartitionAssignment",
    "capacity_bound",
    "StreamingState",
    "hdrf_stream",
    "RandomStreamPartitioner",
    "random_stream",
    "AdwisePartitioner",
    "NePartitioner",
    "SnePartitioner",
    "DnePartitioner",
    "MetisPartitioner",
    "SimpleHybridPartitioner",
]
