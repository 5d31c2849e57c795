"""Bulk-synchronous parallel (BSP) streaming — parallel HEP's phase two.

The paper closes with "we aim to further improve the performance of HEP
by focusing on parallelism and distribution".  The in-memory phase is
hard to parallelize without becoming DNE (whose quality penalty Figure 8
shows); the streaming phase, however, parallelizes naturally in the BSP
model that distributed stream processors use:

* the h2h edge stream is split round-robin across ``workers``,
* each superstep, every worker scores and places one batch of its edges
  against a *shared immutable snapshot* of the replica/load state,
* a barrier merges the workers' deltas (replica marks OR-ed, loads
  summed) into the next snapshot.

Staleness is the price of parallelism: within a superstep, workers do
not see each other's placements.  ``batch = 1`` with one worker is
exactly sequential informed HDRF; growing ``workers * batch`` trades
replication factor for parallel throughput.  This module executes the
schedule deterministically in process (one OS process — the *semantics*
of parallel execution, not its wall-clock; DESIGN.md documents the
substitution) and reports the modeled speedup: sequential rounds divided
by BSP supersteps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.parallel.kernel import (
    apply_batch,
    place_batch_serialized,
    round_robin_streams,
    score_batch_on_snapshot,
    superstep_is_safe,
)
from repro.partition.state import StreamingState

__all__ = ["bsp_hdrf_stream", "BspStreamReport"]


@dataclass(frozen=True)
class BspStreamReport:
    """What the BSP schedule did: its size and modeled parallel speedup."""

    workers: int
    batch: int
    supersteps: int
    edges_streamed: int

    @property
    def modeled_speedup(self) -> float:
        """Sequential edge-rounds over BSP supersteps (ideal network)."""
        if self.supersteps == 0:
            return 1.0
        return self.edges_streamed / (self.supersteps * self.batch)


def bsp_hdrf_stream(
    state: StreamingState,
    edges: np.ndarray,
    eids: np.ndarray,
    parts_out: np.ndarray,
    workers: int,
    batch: int = 8,
    lam: float = 1.1,
    eps: float = 1.0,
    streams: "list[np.ndarray] | None" = None,
) -> BspStreamReport:
    """Stream ``edges`` through HDRF scoring under a BSP schedule.

    Mutates ``state`` and ``parts_out`` like
    :func:`repro.partition.hdrf.hdrf_stream`, but in supersteps of
    ``workers * batch`` edges scored against a frozen snapshot.

    ``streams`` assigns ownership explicitly: one array of positions
    into ``edges`` per worker, consumed in order, ``batch`` per
    superstep.  ``None`` (the default) keeps the classic round-robin
    split (:func:`~repro.parallel.kernel.round_robin_streams`).  The
    multi-process driver (:mod:`repro.stream.workers`) runs this exact
    schedule — same kernels, same stream construction — on real OS
    processes, which is what makes this function its executable oracle.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if batch < 1:
        raise ConfigurationError(f"batch must be >= 1, got {batch}")
    m = int(edges.shape[0])
    if streams is None:
        # Round-robin ownership, as a distributed ingest layer would shard.
        streams = round_robin_streams(m, workers)
    elif len(streams) != workers:
        raise ConfigurationError(
            f"streams must list one eid array per worker "
            f"({workers}), got {len(streams)}"
        )
    streamed = int(sum(s.size for s in streams))
    cursors = [0] * workers
    supersteps = 0

    while any(cursors[w] < streams[w].size for w in range(workers)):
        snapshot_replicas = state.replicas.copy()
        snapshot_loads = state.loads.copy()
        supersteps += 1
        # Fast path: when no partition can fill up this superstep, the
        # live capacity mask never binds and every placement is a pure
        # argmax over the snapshot scores — placeable vectorized.
        safe = superstep_is_safe(snapshot_loads, workers, batch, state.capacity)
        for w in range(workers):
            take = streams[w][cursors[w] : cursors[w] + batch]
            cursors[w] += batch
            if take.size == 0:
                continue
            us = edges[take, 0]
            vs = edges[take, 1]
            scores = score_batch_on_snapshot(
                snapshot_replicas, snapshot_loads, state.degrees,
                us, vs, lam, eps,
            )
            if safe:
                ps = np.argmax(scores, axis=1)
                # Local delta applies to the live state; the snapshot
                # stays frozen until the barrier (= this loop's end).
                apply_batch(state, us, vs, ps)
            else:
                # The *capacity* check uses live loads: a real system
                # enforces its hard bound at the (serialized) partition
                # owner, not the snapshot.
                ps = place_batch_serialized(state, us, vs, scores)
            parts_out[eids[take]] = ps
    return BspStreamReport(workers, batch, supersteps, streamed)
