"""In-memory references for the job algorithms, over the kept kernels.

Each function partitions a whole :class:`~repro.graph.edgelist.Graph`
with one call of its algorithm's kernel over the full edge array, in
natural order — no chunking, no spill, no stages, no ``run_job``.  The
out-of-core ≡ in-memory suites compare jobs against these, and the
shm ≡ oracle suites compare multi-worker HEP against
:func:`parallel_hep`:

* HEP: :func:`~repro.core.ne_plus_plus.run_ne_plus_plus`, then
  :func:`~repro.core.hep.phase_two_capacity`,
  :meth:`~repro.partition.state.StreamingState.informed` and
  :func:`~repro.partition.hdrf.hdrf_stream` over the h2h edges;
* each streaming baseline: its kernel over the whole edge array.

:func:`repair_overflow_loop` is the per-edge loop the vectorized
:func:`~repro.partition.dbh.repair_overflow` replaced; a property pins
the two to the same assignment.

:func:`job` is the other side: the job under test on a loaded Graph.
Scripts import this module with ``PYTHONPATH=src:tests``.
"""

from __future__ import annotations

import numpy as np

from repro.core.hep import phase_two_capacity
from repro.core.ne_plus_plus import run_ne_plus_plus
from repro.parallel import bsp_hdrf_stream
from repro.partition import PartitionAssignment, StreamingState, hdrf_stream
from repro.partition.base import capacity_bound
from repro.partition.dbh import dbh_assign, repair_overflow
from repro.partition.greedy import greedy_stream
from repro.partition.grid import grid_cells, grid_shape, grid_stream
from repro.partition.restreaming import restream_block
from repro.runtime import make_job, run_job


def job(algo, graph, k, **options):
    """``run_job(make_job(algo, graph, k, **options), graph)``'s assignment."""
    return run_job(make_job(algo, graph, k, **options), graph).to_assignment(
        graph
    )


def _phase_one(graph, k, tau, alpha):
    """NE++ at ``tau`` plus the informed phase-two state it hands over."""
    phase_one = run_ne_plus_plus(graph, k, tau=tau)
    capacity = phase_two_capacity(graph.num_edges, k, alpha, phase_one.loads)
    state = StreamingState.informed(
        graph, k, capacity,
        replicas=phase_one.secondary, loads=phase_one.loads,
    )
    return phase_one, state


def hep(graph, k, tau=10.0, alpha=1.0, lam=1.1, eps=1.0):
    """HEP: NE++, then informed HDRF over the h2h edges."""
    phase_one, state = _phase_one(graph, k, tau, alpha)
    h2h = phase_one.h2h
    hdrf_stream(state, h2h.pairs, h2h.eids, phase_one.parts, lam=lam, eps=eps)
    return PartitionAssignment(graph, k, phase_one.parts)


def parallel_hep(graph, k, tau, workers, batch, alpha=1.0, lam=1.1, eps=1.0):
    """HEP whose phase two runs the round-robin BSP schedule in process.

    ``workers=1, batch=1`` is sequential HEP.  Returns the assignment and
    the schedule's :class:`~repro.parallel.bsp_streaming.BspStreamReport`.
    """
    phase_one, state = _phase_one(graph, k, tau, alpha)
    h2h = phase_one.h2h
    report = bsp_hdrf_stream(
        state, h2h.pairs, h2h.eids, phase_one.parts,
        workers=workers, batch=batch, lam=lam, eps=eps,
    )
    return PartitionAssignment(graph, k, phase_one.parts), report


def hdrf(graph, k, alpha=1.0, lam=1.1, eps=1.0, exact_degrees=False):
    """HDRF over the whole edge array (partial degrees by default)."""
    capacity = capacity_bound(graph.num_edges, k, alpha)
    state = StreamingState.fresh(
        graph, k, capacity, use_exact_degrees=exact_degrees
    )
    parts = np.full(graph.num_edges, -1, dtype=np.int32)
    hdrf_stream(
        state, graph.edges, np.arange(graph.num_edges), parts,
        lam=lam, eps=eps,
    )
    return PartitionAssignment(graph, k, parts)


def greedy(graph, k, alpha=1.0):
    """PowerGraph greedy over the whole edge array (exact degrees)."""
    capacity = capacity_bound(graph.num_edges, k, alpha)
    state = StreamingState.fresh(graph, k, capacity, use_exact_degrees=True)
    parts = np.full(graph.num_edges, -1, dtype=np.int32)
    greedy_stream(
        state, graph.degrees.copy(), graph.edges,
        np.arange(graph.num_edges), parts,
    )
    return PartitionAssignment(graph, k, parts)


def dbh(graph, k, alpha=1.0, salt=0):
    """Degree-based hashing of every edge, then the overflow repair."""
    parts = dbh_assign(graph.edges, graph.degrees, k, salt)
    capacity = capacity_bound(graph.num_edges, k, alpha)
    return PartitionAssignment(graph, k, repair_overflow(parts, k, capacity))


def grid(graph, k, alpha=1.0, salt=0):
    """Grid hashing of every edge, then the overflow repair."""
    rows, cols = grid_shape(k)
    cell_a, cell_b = grid_cells(graph.edges, rows, cols, salt)
    parts = np.empty(graph.num_edges, dtype=np.int32)
    loads = np.zeros(k, dtype=np.int64)
    grid_stream(cell_a, cell_b, loads, np.arange(graph.num_edges), parts)
    capacity = capacity_bound(graph.num_edges, k, alpha)
    return PartitionAssignment(graph, k, repair_overflow(parts, k, capacity))


def restreaming(graph, k, passes=3, alpha=1.0, lam=1.1, eps=1.0):
    """``passes`` restreaming-HDRF sweeps over the whole edge array."""
    capacity = capacity_bound(graph.num_edges, k, alpha)
    incidence = np.zeros((k, graph.num_vertices), dtype=np.int32)
    loads = np.zeros(k, dtype=np.int64)
    parts = np.full(graph.num_edges, -1, dtype=np.int32)
    eids = np.arange(graph.num_edges, dtype=np.int64)
    for _ in range(passes):
        restream_block(
            graph.edges, eids, incidence, loads, graph.degrees, parts,
            capacity, lam, eps,
        )
    return PartitionAssignment(graph, k, parts)


def repair_overflow_loop(parts, k, capacity):
    """The per-edge overflow repair loop (raises ``IndexError`` when full).

    Overfull partitions in ascending order hand their edges past the
    first ``capacity`` (by edge id) one at a time to the partitions that
    had room before the repair, filled in ascending order.
    """
    sizes = np.bincount(parts, minlength=k)
    if (sizes <= capacity).all():
        return parts
    parts = parts.copy()
    space = capacity - sizes
    underfull = [p for p in range(k) if space[p] > 0]
    cursor = 0
    for p in np.flatnonzero(sizes > capacity):
        surplus_edges = np.flatnonzero(parts == p)[capacity:]
        for e in surplus_edges:
            while space[underfull[cursor]] == 0:
                cursor += 1
            target = underfull[cursor]
            parts[e] = target
            space[target] -= 1
    return parts
