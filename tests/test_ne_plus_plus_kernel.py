"""The localized NE++ kernel against the class-based reference.

``run_ne_plus_plus_on_csr`` runs phase one as one kernel function over
zero-copy views of the CSR.  The reference below is the class it
replaced, moved here verbatim: per-edge ``_assign`` calls, numpy item
reads and writes, and one ``remove_marked`` call per clean-up member.
The property pins the two together bit for bit on canonical input:
parts, secondary sets, loads, every ``NePlusPlusStats`` field, the
whole post-cleanup CSR (stale tails included) and the ``trace_walk``
sequence that Table 6's paging simulator replays.  Both sides of the
out-of-core ≡ in-memory suites call the same kernel, so only this
comparison sees a change to it.

The reference keeps one known defect: on a duplicated edge a seed
assigns the second copy twice.  The kernel skips an edge that is
already assigned; the duplicate-edge tests at the end pin that.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._ds import IndexedMinHeap
from repro.core.ne_plus_plus import (
    NePlusPlusResult,
    NePlusPlusStats,
    run_ne_plus_plus_on_csr,
)
from repro.graph.csr import CsrGraph
from repro.graph.edgelist import Graph
from repro.graph.generators import rmat
from repro.graph.pruned import high_degree_mask
from repro.partition.base import capacity_bound
from repro.runtime import make_job, run_job
from strategies import power_law_graphs


class _NePlusPlusRun:
    def __init__(
        self,
        graph: Graph | None,
        csr: CsrGraph,
        k: int,
        tau: float,
        record_degrees: bool,
        trace_walk: Callable[[int], None] | None,
        seed_order: str = "sequential",
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.csr = csr
        self.k = k
        self.tau = tau
        self.n = csr.num_vertices
        self.degrees = csr.degrees
        self.high = csr.high_mask
        self.m_inmem = csr.num_csr_edges
        # Adapted capacity bound: only in-memory edges count here.
        self.capacity = capacity_bound(max(self.m_inmem, 1), k)
        self.parts = np.full(csr.num_edges_total, -1, dtype=np.int32)
        self.loads = np.zeros(k, dtype=np.int64)
        self.in_core = np.zeros(self.n, dtype=bool)
        self.secondary = np.zeros((k, self.n), dtype=bool)
        self.heap = IndexedMinHeap()
        self.current = 0
        self.seed_cursor = 0  # position in the seed scan sequence
        if seed_order == "sequential":
            self.seed_sequence = np.arange(self.n, dtype=np.int64)
        else:
            self.seed_sequence = np.random.default_rng(seed).permutation(self.n)
        self.assigned_inmem = 0
        self.record_degrees = record_degrees
        self.trace_walk = trace_walk
        self.stats = NePlusPlusStats(initial_column_entries=int(csr.col.size))

    # -- driver ------------------------------------------------------------

    def execute(self) -> NePlusPlusResult:
        last = self.k - 1
        for i in range(last):
            self.current = i
            self.heap.clear()
            exhausted = not self._expand_partition()
            if self.record_degrees:
                members = np.flatnonzero(
                    self.secondary[i] & ~self.in_core & ~self.high
                )
                self.stats.secondary_end_degrees.extend(
                    self.degrees[members].tolist()
                )
            self._cleanup(i)
            if exhausted or self.assigned_inmem >= self.m_inmem:
                break
        self._final_sweep()
        return NePlusPlusResult(
            graph=self.graph,
            k=self.k,
            tau=self.tau,
            parts=self.parts,
            secondary=self.secondary,
            loads=self.loads,
            high_mask=self.high,
            h2h=self.csr.h2h_edges,
            stats=self.stats,
        )

    def _expand_partition(self) -> bool:
        """Grow partition ``current`` to capacity.

        Returns ``False`` once the seed scan is exhausted (no further
        partition can be grown by expansion).
        """
        i = self.current
        while self.loads[i] < self.capacity and self.assigned_inmem < self.m_inmem:
            if self.heap:
                v, _ = self.heap.pop_min()
                self._move_to_core(v)
            elif not self._initialize():
                return False
        return True

    def _initialize(self) -> bool:
        """Sequential-scan seed search (Section 3.2.3).

        Every rejection is permanent for this partition: cored and
        high-degree are immutable, valid adjacency sizes only shrink, and
        spill-marked vertices (already in ``S_i`` without having been
        walked) are skipped — their remaining edges are picked up by a
        later partition or the final sweep.
        """
        csr = self.csr
        sec = self.secondary[self.current]
        while self.seed_cursor < self.n:
            v = int(self.seed_sequence[self.seed_cursor])
            self.seed_cursor += 1
            if self.in_core[v] or self.high[v] or sec[v]:
                continue
            if csr.out_size[v] + csr.in_size[v] == 0:
                continue
            self.stats.num_seeds += 1
            self._move_to_core(v, fresh=True)
            return True
        return False

    # -- expansion ---------------------------------------------------------------

    def _move_to_core(self, v: int, fresh: bool = False) -> None:
        """Core ``v``; with ``fresh=True`` (a seed) ``v`` enters the region
        right now, so its edges *into* the region are assigned here.

        A vertex cored from the heap had those edges assigned when the
        later endpoint entered ``C ∪ S_i`` (Algorithm 1's invariant); a
        seed was outside the region until this moment, so edges to
        secondary members — including the a-priori high-degree members —
        would otherwise be missed and later destroyed by clean-up.
        """
        i = self.current
        sec = self.secondary[i]
        self.in_core[v] = True
        if fresh:
            sec[v] = True
        self.stats.num_cored += 1
        if self.record_degrees:
            self.stats.core_degrees.append(int(self.degrees[v]))
        if self.trace_walk is not None:
            self.trace_walk(v)
        nbrs, eids = self.csr.adjacency(v)
        high = self.high
        in_core = self.in_core
        heap = self.heap
        for w, eid in zip(nbrs.tolist(), eids.tolist()):
            if high[w]:
                if fresh:
                    # A-priori secondary membership of high-degree vertices.
                    self._assign(eid, v, w)
                    sec[w] = True
                # else: assigned at v's own secondary walk already.
            elif in_core[w] or sec[w]:
                if fresh:
                    self._assign(eid, v, w)
                    if w in heap:
                        heap.decrement(w)
                # else: assigned when the later endpoint entered the region.
            else:
                self._move_to_secondary(w)

    def _move_to_secondary(self, v: int) -> None:
        i = self.current
        sec = self.secondary[i]
        sec[v] = True
        if self.trace_walk is not None:
            self.trace_walk(v)
        dext = 0
        nbrs, eids = self.csr.adjacency(v)
        high = self.high
        in_core = self.in_core
        heap = self.heap
        for w, eid in zip(nbrs.tolist(), eids.tolist()):
            if high[w]:
                self._assign(eid, v, w)
                sec[w] = True
            elif in_core[w] or sec[w]:
                self._assign(eid, v, w)
                if w in heap:
                    heap.decrement(w)
            else:
                dext += 1
        heap.push(v, dext)

    def _assign(self, eid: int, u: int, w: int) -> None:
        i = self.current
        if self.loads[i] >= self.capacity and i + 1 < self.k:
            # Spill-over: endpoints become replicas of the receiving
            # partition.  A single expansion step can overshoot by more
            # than one partition's headroom, so cascade forward.
            while self.loads[i] >= self.capacity and i + 1 < self.k:
                i += 1
            self.secondary[i, u] = True
            self.secondary[i, w] = True
            self.stats.spilled_edges += 1
        self.parts[eid] = i
        self.loads[i] += 1
        self.assigned_inmem += 1

    # -- lazy edge removal ---------------------------------------------------------

    def _cleanup(self, i: int) -> None:
        """Algorithm 2: remove assigned entries from lists that may be
        visited again (only vertices still in the secondary set)."""
        region = self.in_core | self.secondary[i]
        members = np.flatnonzero(self.secondary[i] & ~self.in_core & ~self.high)
        removed = 0
        csr = self.csr
        for v in members.tolist():
            if self.trace_walk is not None:
                self.trace_walk(v)
            removed += csr.remove_marked(v, region)
        self.stats.cleanup_removed_entries += removed

    # -- last partition (Algorithm 3) ---------------------------------------------

    def _final_sweep(self) -> None:
        """Assign every remaining in-memory edge, filling partitions from
        the first unfilled one onward under the capacity bound."""
        # The expansion loop filled partitions 0 .. current; the sweep
        # builds the next one (normally the last).  If expansion ended
        # early because the seed scan was exhausted, nothing remains and
        # the sweep is a no-op.
        i = min(self.current + 1, self.k - 1)
        csr = self.csr
        high = self.high
        parts = self.parts
        loads = self.loads
        for v in range(self.n):
            if self.in_core[v] or high[v]:
                continue
            out_n, out_e = csr.out_view(v)
            in_n, in_e = csr.in_view(v)
            if out_e.size == 0 and in_e.size == 0:
                continue
            if self.trace_walk is not None:
                self.trace_walk(v)
            touched = False
            sec = self.secondary[i]
            # Low/low and low/high out-edges: assigned from the left side.
            for w, eid in zip(out_n.tolist(), out_e.tolist()):
                parts[eid] = i
                loads[i] += 1
                self.assigned_inmem += 1
                sec[w] = True
                touched = True
            # In-edges are assigned here only when the source is pruned.
            for w, eid in zip(in_n.tolist(), in_e.tolist()):
                if high[w]:
                    parts[eid] = i
                    loads[i] += 1
                    self.assigned_inmem += 1
                    sec[w] = True
                    touched = True
            if touched:
                sec[v] = True
            if loads[i] >= self.capacity and i + 1 < self.k:
                i = i + 1


_CSR_ARRAYS = ("col", "eid", "out_start", "out_size", "in_start", "in_size")


def _pruned_csr(graph: Graph, tau: float) -> CsrGraph:
    """The CSR phase one runs on: pruned at ``tau`` (``inf``: unpruned)."""
    if np.isinf(tau):
        high = np.zeros(graph.num_vertices, dtype=bool)
    else:
        high = high_degree_mask(graph, tau)
    return CsrGraph.build(graph, high_mask=high)


def _assert_kernel_matches_reference(
    graph, k, tau, seed_order="sequential", seed=0, record_degrees=False,
    traced=True,
):
    expected_csr = _pruned_csr(graph, tau)
    actual_csr = _pruned_csr(graph, tau)
    expected_walks: list[int] = []
    actual_walks: list[int] = []
    expected = _NePlusPlusRun(
        None, expected_csr, k, tau, record_degrees,
        expected_walks.append if traced else None, seed_order, seed,
    ).execute()
    actual = run_ne_plus_plus_on_csr(
        actual_csr, k, tau=tau, record_degrees=record_degrees,
        trace_walk=actual_walks.append if traced else None,
        seed_order=seed_order, seed=seed,
    )
    for name in ("parts", "secondary", "loads", "high_mask"):
        want, got = getattr(expected, name), getattr(actual, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert actual.secondary.flags.c_contiguous
    assert actual.secondary.flags.writeable
    assert asdict(actual.stats) == asdict(expected.stats)
    for name in _CSR_ARRAYS:
        assert np.array_equal(
            getattr(actual_csr, name), getattr(expected_csr, name)
        ), name
    assert actual_walks == expected_walks


@settings(max_examples=100, deadline=None)
@given(
    graph=power_law_graphs(),
    tau=st.sampled_from([0.5, 1.0, 2.0, 10.0, float("inf")]),
    k=st.sampled_from([2, 3, 8, 32]),
    seed_order=st.sampled_from(["sequential", "random"]),
    seed=st.integers(min_value=0, max_value=2**16),
    record_degrees=st.booleans(),
    traced=st.booleans(),
)
def test_kernel_matches_reference(
    graph, tau, k, seed_order, seed, record_degrees, traced
):
    _assert_kernel_matches_reference(
        graph, k, tau, seed_order, seed, record_degrees, traced
    )


@pytest.fixture(scope="module", params=[10, 11, 12])
def wi_rmat(request) -> Graph:
    """WI's recipe at small scales: real ``d_ext`` ties in the heap."""
    return rmat(
        request.param, edge_factor=10, a=0.57, b=0.19, c=0.19, seed=104
    )


@pytest.mark.parametrize("k", [8, 32])
@pytest.mark.parametrize("tau", [1.0, 10.0, float("inf")])
def test_kernel_matches_reference_on_wi_rmat(wi_rmat, tau, k):
    _assert_kernel_matches_reference(wi_rmat, k, tau)


# A duplicated edge (0, 1): the reader keeps duplicates in chunked files.
_DUPLICATED = [[0, 1], [0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]


def test_seed_assigns_a_duplicated_edge_once():
    pairs = np.asarray(_DUPLICATED, dtype=np.int64)
    csr = CsrGraph.from_arrays(
        num_vertices=6,
        pairs=pairs,
        eids=np.arange(pairs.shape[0]),
        degrees=np.bincount(pairs.ravel(), minlength=6),
        high_mask=np.zeros(6, dtype=bool),
        num_edges_total=pairs.shape[0],
    )
    result = run_ne_plus_plus_on_csr(csr, 2)
    assert (result.parts >= 0).all()
    assert np.array_equal(result.loads, np.bincount(result.parts, minlength=2))


def test_run_job_loads_count_a_duplicated_edge_once(tmp_path):
    path = tmp_path / "dup.bin"
    np.asarray(_DUPLICATED, dtype="<u4").tofile(path)
    result = run_job(make_job("HEP", str(path), 2))
    assert (result.parts >= 0).all()
    assert np.array_equal(result.loads, np.bincount(result.parts, minlength=2))
    assert int(result.loads.sum()) == len(_DUPLICATED)
