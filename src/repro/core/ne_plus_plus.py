"""NE++: memory-efficient neighborhood expansion (paper Section 3.2).

NE++ is the in-memory phase of HEP.  It differs from baseline NE
(:mod:`repro.partition.ne`) in exactly the ways the paper describes:

**Pruned graph representation** (Section 3.2.1).  The CSR stores no
adjacency lists for high-degree vertices (``d(v) > tau * mean``); edges
between two high-degree vertices were diverted to an external buffer at
build time.  High-degree vertices are never expanded into the core set —
they are treated as *a priori* members of every secondary set: the
moment a low-degree vertex ``x`` enters the expansion region, each of its
pruned-CSR edges ``(x, u)`` to a high-degree ``u`` is assigned to the
current partition and ``u`` is marked replicated there.

**Lazy edge removal** (Section 3.2.2, Theorem 3.1).  No per-edge
"assigned" bookkeeping exists.  Instead, a clean-up pass after each
partition removes, from the adjacency lists of vertices that *remain in
the secondary set*, the entries pointing into ``C ∪ S_i`` — precisely
the edges that were assigned to ``p_i`` and could otherwise be seen again
by a later partition.  Vertices moved to the core are never visited
again (Theorem 3.1), so their lists are left untouched.

**Sequential-scan initialization** (Section 3.2.3).  Seed search walks
vertex ids once; every rejected vertex is rejected for a permanent
reason (cored, high-degree, or empty adjacency), so the scan never
revisits.

**Adapted capacity bound**: partitions are filled to
``|E \\ E_h2h| / k`` so in-memory edges spread evenly, leaving headroom
for the streamed h2h edges.

**Last partition by linear sweep** (Algorithm 3): remaining low/low
edges are assigned from the left-hand (out-list) side; remaining
low/high edges from the low vertex's in-list.  The split out/in index
arrays exist for exactly this single-owner rule.

The run returns everything HEP's streaming phase needs: the per-edge
assignment (h2h edges still unassigned), the secondary-set matrix (the
replica state), and partition loads.

**The kernel.**  Phase one is one function, :func:`_phase_one`, over
zero-copy views: a ``memoryview`` of each of the CSR's ``col``,
``eid``, ``out_start``, ``out_size``, ``in_start`` and ``in_size``
arrays and of ``parts``, which it writes in place; ``uint8`` rows for the
high-degree, core and ``S_i`` flags, whose ``(k, n)`` matrix becomes
the bool ``secondary`` result without a copy; and the current
partition's load in a local int.  Items come out as plain Python ints,
so no numpy call is made per edge and no copy of the column array is
held.  The spill cascade (:func:`_spill`) is the only call made out of
line.  The clean-up after each partition is one
:meth:`CsrGraph.remove_marked` call over all of ``S_i``'s members.

**Tie order.**  When several vertices in the heap share the smallest
``d_ext``, the one cored next is the top of
:class:`~repro._ds.IndexedMinHeap`'s arrangement, which follows from
the exact sequence of pushes, decrements and pops.  That sequence is
part of the output: another queue (``heapq``, buckets) or another walk
order changes the parts.  The heap's hole-based sifts keep the
arrangement of textbook swap-based sifts.

**Canonical input.**  The kernel assumes the input is canonical — no
self-loops and no duplicate edges, as :meth:`Graph.from_edges`
produces.  Chunked file sources keep duplicates
(:mod:`repro.stream.reader`).  On such input every edge id is still
assigned once: a seed skips an edge its neighbour's walk has already
assigned, so ``loads`` match the parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro._ds import IndexedMinHeap
from repro.errors import ConfigurationError
from repro.graph.csr import CsrGraph, ExternalEdges
from repro.graph.edgelist import Graph
from repro.graph.pruned import high_degree_mask
from repro.partition.base import (
    PartitionAssignment,
    Partitioner,
    capacity_bound,
)

__all__ = [
    "NePlusPlusResult",
    "NePlusPlusStats",
    "run_ne_plus_plus",
    "run_ne_plus_plus_on_csr",
    "NePlusPlusPartitioner",
]

#: tau value that disables pruning entirely (pure in-memory NE++)
TAU_UNPRUNED = float("inf")


@dataclass
class NePlusPlusStats:
    """Counters the paper's Figures 5 and 7 are built from."""

    initial_column_entries: int = 0
    cleanup_removed_entries: int = 0
    num_seeds: int = 0
    num_cored: int = 0
    spilled_edges: int = 0
    core_degrees: list[int] = field(default_factory=list)
    secondary_end_degrees: list[int] = field(default_factory=list)

    @property
    def cleanup_removed_fraction(self) -> float:
        """Fraction of column entries removed by clean-up (Figure 7)."""
        if self.initial_column_entries == 0:
            return 0.0
        return self.cleanup_removed_entries / self.initial_column_entries


@dataclass
class NePlusPlusResult:
    """Output of the in-memory phase, ready for the streaming hand-over.

    ``graph`` is ``None`` when the phase ran on a chunk-built CSR
    (:func:`run_ne_plus_plus_on_csr`): the out-of-core pipeline never
    materializes a full :class:`Graph`, and the h2h edges then live in a
    spill file rather than in :attr:`h2h`.
    """

    graph: Graph | None
    k: int
    tau: float
    parts: np.ndarray              # (m,) int32; h2h edges remain -1
    secondary: np.ndarray          # (k, n) bool: the S_i replica bitsets
    loads: np.ndarray              # (k,) int64 edge loads after phase one
    high_mask: np.ndarray          # (n,) bool
    h2h: ExternalEdges
    stats: NePlusPlusStats

    @property
    def num_inmemory_edges(self) -> int:
        """Edges phase one placed in memory (everything but h2h)."""
        return int(self.parts.shape[0]) - self.h2h.num_edges

    def to_assignment(self) -> PartitionAssignment:
        """Assignment view (only complete when there are no h2h edges)."""
        if self.graph is None:
            raise ConfigurationError(
                "NE++ ran without an in-memory Graph; build the assignment "
                "through the out-of-core pipeline instead"
            )
        return PartitionAssignment(self.graph, self.k, self.parts)


def run_ne_plus_plus(
    graph: Graph,
    k: int,
    tau: float = TAU_UNPRUNED,
    record_degrees: bool = False,
    trace_walk: Callable[[int], None] | None = None,
    seed_order: str = "sequential",
    seed: int = 0,
) -> NePlusPlusResult:
    """Run the NE++ in-memory phase.

    Parameters
    ----------
    graph, k:
        Input graph and number of partitions.
    tau:
        Degree threshold factor.  ``inf`` disables pruning (no h2h edges).
    record_degrees:
        Collect the Figure 5 degree histories (small overhead).
    trace_walk:
        Optional callback invoked with a vertex id every time that
        vertex's adjacency list is walked — the memory-access feed for the
        paging simulator (Table 6).
    seed_order:
        ``"sequential"`` — the paper's Section 3.2.3 optimization (scan
        ids once, never revisit); ``"random"`` — the reference NE's
        randomized selection, kept as an ablation (still scanned without
        replacement so it terminates).
    """
    if np.isinf(tau):
        high = np.zeros(graph.num_vertices, dtype=bool)
    else:
        high = high_degree_mask(graph, tau)
    csr = CsrGraph.build(graph, high_mask=high)
    return run_ne_plus_plus_on_csr(
        csr,
        k,
        tau=tau,
        record_degrees=record_degrees,
        trace_walk=trace_walk,
        seed_order=seed_order,
        seed=seed,
        graph=graph,
    )


def run_ne_plus_plus_on_csr(
    csr: CsrGraph,
    k: int,
    tau: float = TAU_UNPRUNED,
    record_degrees: bool = False,
    trace_walk: Callable[[int], None] | None = None,
    seed_order: str = "sequential",
    seed: int = 0,
    graph: Graph | None = None,
) -> NePlusPlusResult:
    """Run NE++ on a prebuilt (possibly chunk-built) CSR.

    This is the out-of-core entry point: :mod:`repro.stream` assembles the
    pruned CSR from bounded chunks (diverting h2h edges to a spill file)
    and hands it here without ever constructing the full edge array.  The
    CSR carries everything the phase needs — true degrees, the high-degree
    mask and the total edge count.
    """
    if k < 2:
        raise ConfigurationError(f"NE++ requires k >= 2, got {k}")
    if seed_order not in ("sequential", "random"):
        raise ConfigurationError(f"unknown seed_order {seed_order!r}")
    n = csr.num_vertices
    if seed_order == "sequential":
        seeds = range(n)
    else:
        seeds = memoryview(np.random.default_rng(seed).permutation(n))
    parts, secondary, loads, stats = _phase_one(
        csr, k, seeds, record_degrees, trace_walk
    )
    return NePlusPlusResult(
        graph=graph,
        k=k,
        tau=tau,
        parts=parts,
        secondary=secondary,
        loads=loads,
        high_mask=csr.high_mask,
        h2h=csr.h2h_edges,
        stats=stats,
    )


def _phase_one(
    csr: CsrGraph,
    k: int,
    seeds,
    record_degrees: bool,
    trace_walk: Callable[[int], None] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, NePlusPlusStats]:
    """Expansion, clean-up and final sweep; returns parts, secondary,
    loads and stats.  ``seeds`` is the seed scan order (indexable)."""
    n = csr.num_vertices
    m_inmem = csr.num_csr_edges
    # Adapted capacity bound: only in-memory edges count here.
    capacity = capacity_bound(max(m_inmem, 1), k)
    parts_arr = np.full(csr.num_edges_total, -1, dtype=np.int32)
    flags = np.zeros((k, n), dtype=np.uint8)
    secondary = flags.view(bool)
    core_arr = np.zeros(n, dtype=np.uint8)
    in_core = core_arr.view(bool)
    high_mask = np.asarray(csr.high_mask, dtype=bool)
    degrees = csr.degrees
    stats = NePlusPlusStats(initial_column_entries=int(csr.col.size))
    core_degrees = stats.core_degrees

    # Zero-copy views: items read and written as plain Python ints.
    col = memoryview(csr.col)
    eid = memoryview(csr.eid)
    out_start = memoryview(csr.out_start)
    out_size = memoryview(csr.out_size)
    in_start = memoryview(csr.in_start)
    in_size = memoryview(csr.in_size)
    parts = memoryview(parts_arr)
    rows = [memoryview(row) for row in flags]
    core = memoryview(core_arr)
    high = memoryview(high_mask.view(np.uint8))
    loads = [0] * k

    heap = IndexedMinHeap()
    push, pop_min, decrement = heap.push, heap.pop_min, heap.decrement
    cursor = assigned = seeded = cored = spilled = 0
    for i in range(k - 1):
        heap.clear()
        sec = rows[i]
        load = loads[i]
        exhausted = False
        while load < capacity and assigned < m_inmem:
            if heap:
                v = pop_min()[0]
                fresh = False
            else:
                # Sequential-scan seed search (Section 3.2.3): every
                # rejection is permanent for this partition — cored and
                # high-degree are immutable, valid sizes only shrink, and
                # a spill-marked vertex (in S_i, never walked) has its
                # edges picked up later.
                while cursor < n:
                    v = seeds[cursor]
                    cursor += 1
                    if core[v] or high[v] or sec[v]:
                        continue
                    if out_size[v] + in_size[v]:
                        break
                else:
                    exhausted = True
                    break
                seeded += 1
                sec[v] = 1
                fresh = True
            core[v] = 1
            cored += 1
            if record_degrees:
                core_degrees.append(int(degrees[v]))
            if trace_walk is not None:
                trace_walk(v)
            a = out_start[v]
            c = in_start[v]
            for lo, hi in ((a, a + out_size[v]), (c, c + in_size[v])):
                for w, e in zip(col[lo:hi], eid[lo:hi]):
                    if high[w] or core[w] or sec[w]:
                        # A popped vertex had these edges assigned when
                        # their later endpoint entered C ∪ S_i; a seed
                        # enters the region only now, so it assigns them
                        # itself (high-degree vertices being a-priori
                        # members).  An edge already assigned is a
                        # duplicate that w's walk just placed.
                        if fresh and parts[e] < 0:
                            if load < capacity:
                                parts[e] = i
                                load += 1
                            else:
                                spilled += 1
                                _spill(e, v, w, i, loads, capacity, rows, parts)
                            assigned += 1
                            if high[w]:
                                sec[w] = 1
                            elif w in heap:
                                decrement(w)
                        continue
                    # w enters S_i: assign its edges into the region and
                    # count the rest as its external degree.
                    sec[w] = 1
                    if trace_walk is not None:
                        trace_walk(w)
                    dext = 0
                    wa = out_start[w]
                    wc = in_start[w]
                    for wlo, whi in ((wa, wa + out_size[w]), (wc, wc + in_size[w])):
                        for x, f in zip(col[wlo:whi], eid[wlo:whi]):
                            if high[x] or core[x] or sec[x]:
                                if load < capacity:
                                    parts[f] = i
                                    load += 1
                                else:
                                    spilled += 1
                                    _spill(f, w, x, i, loads, capacity, rows, parts)
                                assigned += 1
                                if high[x]:
                                    sec[x] = 1
                                elif x in heap:
                                    decrement(x)
                            else:
                                dext += 1
                    push(w, dext)
        loads[i] = load
        # Lazy edge removal (Algorithm 2): only vertices still in the
        # secondary set can be visited again.
        members = np.flatnonzero(secondary[i] & ~in_core & ~high_mask)
        if record_degrees:
            stats.secondary_end_degrees.extend(degrees[members].tolist())
        if trace_walk is not None:
            for v in members.tolist():
                trace_walk(v)
        stats.cleanup_removed_entries += csr.remove_marked(
            members, in_core | secondary[i]
        )
        if exhausted or assigned >= m_inmem:
            break

    # Last partition by linear sweep (Algorithm 3), filling partitions
    # from the one after the last expanded partition ``i`` onward.  If
    # the seed scan ran out, nothing remains and the sweep is a no-op.
    i = min(i + 1, k - 1)
    sec = rows[i]
    load = loads[i]
    for v in range(n):
        if core[v] or high[v]:
            continue
        a = out_start[v]
        b = a + out_size[v]
        c = in_start[v]
        d = c + in_size[v]
        if a == b and c == d:
            continue
        if trace_walk is not None:
            trace_walk(v)
        # Out-entries are assigned from the left side; in-entries only
        # when the source is pruned.
        touched = a < b
        for w, e in zip(col[a:b], eid[a:b]):
            parts[e] = i
            sec[w] = 1
        load += b - a
        for w, e in zip(col[c:d], eid[c:d]):
            if high[w]:
                parts[e] = i
                sec[w] = 1
                load += 1
                touched = True
        if touched:
            sec[v] = 1
        if load >= capacity and i + 1 < k:
            loads[i] = load
            i += 1
            sec = rows[i]
            load = loads[i]
    loads[i] = load

    stats.num_seeds = seeded
    stats.num_cored = cored
    stats.spilled_edges = spilled
    return parts_arr, secondary, np.asarray(loads, dtype=np.int64), stats


def _spill(e, u, w, i, loads, capacity, rows, parts) -> None:
    """Spill-over: partition ``i`` is full, so edge ``e`` goes to the
    first later partition with room (or the last), whose secondary set
    gains both endpoints.  One expansion step can overshoot by more
    than one partition's headroom, hence the cascade."""
    j = i + 1
    last = len(loads) - 1
    while loads[j] >= capacity and j < last:
        j += 1
    rows[j][u] = 1
    rows[j][w] = 1
    parts[e] = j
    loads[j] += 1


class NePlusPlusPartitioner(Partitioner):
    """Standalone NE++ (unpruned): the paper's drop-in replacement for NE.

    With the default ``tau = inf`` there are no h2h edges, so the
    in-memory phase assigns every edge and this is a complete
    partitioner.  A finite ``tau`` makes sense only inside HEP (a
    ``HEP`` job: ``run_job(make_job("HEP", ...))``).
    """

    def __init__(self, record_degrees: bool = False) -> None:
        self.record_degrees = record_degrees
        self.last_stats: NePlusPlusStats | None = None
        self.name = "NE++"

    def partition(self, graph: Graph, k: int) -> PartitionAssignment:
        """Run NE++ alone (h2h edges placed by the fallback rule)."""
        self._require_k(graph, k)
        result = run_ne_plus_plus(
            graph, k, tau=TAU_UNPRUNED, record_degrees=self.record_degrees
        )
        self.last_stats = result.stats
        return result.to_assignment()
