"""Tests for the CSR representation, pruning, and lazy removal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, CsrGraph, build_pruned_csr, high_degree_mask, split_edges


def paper_figure4_graph() -> Graph:
    """The 9-vertex, 11-edge example of the paper's Figure 4.

    Adjacencies in the figure: v0:{5,7}, v1:{4,5}, v2:{4}, v3:{4},
    v4:{1,2,3,5}, v5:{0,1,4,7,8}, v6:{8}, v7:{0,5,8}, v8:{5,6,7}.
    """
    edges = [
        (0, 5), (0, 7),
        (1, 4), (1, 5),
        (2, 4),
        (3, 4),
        (4, 5),
        (5, 7), (5, 8),
        (6, 8),
        (7, 8),
    ]
    return Graph.from_edges(edges, num_vertices=9, name="fig4")


class TestUnprunedBuild:
    def test_every_edge_twice(self):
        g = paper_figure4_graph()
        csr = CsrGraph.build(g)
        assert csr.col.size == 2 * g.num_edges  # 22 entries, as the figure
        counts = np.bincount(csr.eid, minlength=g.num_edges)
        assert (counts == 2).all()

    def test_out_in_split_orientation(self):
        g = Graph.from_edges([(0, 1), (2, 0)], num_vertices=3)
        csr = CsrGraph.build(g)
        out0, _ = csr.out_view(0)
        in0, _ = csr.in_view(0)
        assert out0.tolist() == [1]   # edge (0,1) is an out-edge of 0
        assert in0.tolist() == [2]    # edge (2,0) is an in-edge of 0

    def test_degrees_match_adjacency(self):
        g = paper_figure4_graph()
        csr = CsrGraph.build(g)
        for v in range(g.num_vertices):
            assert csr.valid_degree(v) == g.degrees[v]
            assert sorted(csr.neighbors(v).tolist()) == sorted(
                set(np.concatenate([
                    g.edges[g.edges[:, 0] == v][:, 1],
                    g.edges[g.edges[:, 1] == v][:, 0],
                ]).tolist())
            )

    def test_invariants(self):
        csr = CsrGraph.build(paper_figure4_graph())
        csr.check_invariants()

    def test_empty_graph(self):
        g = Graph.from_edges(np.empty((0, 2)), num_vertices=3)
        csr = CsrGraph.build(g)
        assert csr.col.size == 0
        assert csr.valid_degree(0) == 0

    def test_h2h_empty_when_unpruned(self):
        csr = CsrGraph.build(paper_figure4_graph())
        assert csr.h2h_edges.num_edges == 0
        assert not csr.is_pruned


class TestPrunedBuild:
    def test_figure4_pruning(self):
        """At tau=1.5 (threshold 3.67), v4 and v5 are high-degree; edge
        (4,5) goes external and the column array shrinks from 22 to 13."""
        g = paper_figure4_graph()
        mask = high_degree_mask(g, tau=1.5)
        assert np.flatnonzero(mask).tolist() == [4, 5]
        csr = CsrGraph.build(g, high_mask=mask)
        assert csr.col.size == 13
        assert csr.h2h_edges.num_edges == 1
        assert csr.h2h_edges.pairs.tolist() == [[4, 5]]
        # High-degree vertices have no lists at all.
        assert csr.valid_degree(4) == 0
        assert csr.valid_degree(5) == 0
        # Full degrees retain the pruned edges.
        assert csr.degrees[4] == 4 and csr.degrees[5] == 5
        csr.check_invariants()

    def test_low_high_edges_once_from_low_side(self):
        g = paper_figure4_graph()
        csr = build_pruned_csr(g, tau=1.5)
        counts = np.bincount(csr.eid, minlength=g.num_edges)
        u, v = g.edges[:, 0], g.edges[:, 1]
        mask = csr.high_mask
        expect = np.where(
            mask[u] & mask[v], 0, np.where(mask[u] | mask[v], 1, 2)
        )
        assert counts.tolist() == expect.tolist()

    def test_csr_edges_accounting(self):
        g = paper_figure4_graph()
        csr = build_pruned_csr(g, tau=1.5)
        assert csr.num_csr_edges == g.num_edges - 1
        assert csr.num_edges_total == g.num_edges

    def test_tau_inf_equals_unpruned(self):
        g = paper_figure4_graph()
        csr = build_pruned_csr(g, tau=1e9)
        assert not csr.is_pruned
        assert csr.col.size == 2 * g.num_edges


class TestEdgeSplit:
    def test_split_monotone_in_tau(self):
        g = paper_figure4_graph()
        fractions = [split_edges(g, tau).h2h_fraction() for tau in (0.5, 1.0, 1.5, 3.0)]
        assert fractions == sorted(fractions, reverse=True)

    def test_split_partitions_edges(self):
        g = paper_figure4_graph()
        split = split_edges(g, tau=1.0)
        assert split.h2h_mask.shape == (g.num_edges,)
        assert split.num_h2h_edges + int((~split.h2h_mask).sum()) == g.num_edges

    def test_tau_zero_rejected(self):
        with pytest.raises(Exception):
            split_edges(paper_figure4_graph(), tau=0)


class TestRemoval:
    def test_remove_marked_basic(self):
        g = paper_figure4_graph()
        csr = CsrGraph.build(g)
        marked = np.zeros(9, dtype=bool)
        marked[[5, 7]] = True
        removed = csr.remove_marked(0, marked)
        assert removed == 2
        assert csr.valid_degree(0) == 0
        csr.check_invariants()

    def test_remove_marked_partial(self):
        g = paper_figure4_graph()
        csr = CsrGraph.build(g)
        marked = np.zeros(9, dtype=bool)
        marked[0] = True
        removed = csr.remove_marked(5, marked)   # only edge (0,5)
        assert removed == 1
        assert 0 not in csr.neighbors(5).tolist()
        assert csr.valid_degree(5) == 4
        csr.check_invariants()

    def test_remove_marked_nothing(self):
        csr = CsrGraph.build(paper_figure4_graph())
        marked = np.zeros(9, dtype=bool)
        assert csr.remove_marked(4, marked) == 0
        assert csr.valid_degree(4) == 4

    def test_remove_edge_entry(self):
        g = Graph.from_edges([(0, 1), (0, 2)], num_vertices=3)
        csr = CsrGraph.build(g)
        eid01 = int(csr.eid[csr.out_start[0]:][0])
        assert csr.remove_edge_entry(0, 1, 0)
        assert csr.valid_degree(0) == 1
        assert not csr.remove_edge_entry(0, 1, 0)  # already gone from 0's side
        assert csr.remove_edge_entry(1, 0, 0)
        assert csr.valid_degree(1) == 0
        csr.check_invariants()
        assert eid01 == 0

    def test_removal_does_not_touch_other_windows(self):
        g = paper_figure4_graph()
        csr = CsrGraph.build(g)
        before = {v: sorted(csr.neighbors(v).tolist()) for v in range(9) if v != 5}
        marked = np.zeros(9, dtype=bool)
        marked[:] = True
        csr.remove_marked(5, marked)
        assert csr.valid_degree(5) == 0
        after = {v: sorted(csr.neighbors(v).tolist()) for v in range(9) if v != 5}
        assert before == after


@st.composite
def random_graph(draw, max_n=24, max_m=80):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, max_m))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    return Graph.from_edges(np.asarray(edges, dtype=np.int64).reshape(-1, 2), n)


@settings(max_examples=60, deadline=None)
@given(g=random_graph(), tau=st.floats(0.25, 8.0))
def test_pruned_csr_properties(g, tau):
    """Property: pruned CSR + h2h externals account for every edge exactly
    once, with entry multiplicity determined by endpoint classes."""
    csr = build_pruned_csr(g, tau)
    csr.check_invariants()
    counts = np.bincount(csr.eid, minlength=g.num_edges) if csr.eid.size else (
        np.zeros(g.num_edges, dtype=np.int64)
    )
    mask = csr.high_mask
    for e, (u, v) in enumerate(g.edges.tolist()):
        if mask[u] and mask[v]:
            assert counts[e] == 0
        elif mask[u] or mask[v]:
            assert counts[e] == 1
        else:
            assert counts[e] == 2
    assert set(csr.h2h_edges.eids.tolist()) == {
        e for e, (u, v) in enumerate(g.edges.tolist()) if mask[u] and mask[v]
    }


@settings(max_examples=40, deadline=None)
@given(g=random_graph(max_n=12, max_m=40), data=st.data())
def test_remove_marked_property(g, data):
    """Property: remove_marked removes exactly the flagged neighbors and
    preserves everything else."""
    csr = CsrGraph.build(g)
    v = data.draw(st.integers(0, g.num_vertices - 1))
    flags = data.draw(
        st.lists(st.booleans(), min_size=g.num_vertices, max_size=g.num_vertices)
    )
    marked = np.asarray(flags, dtype=bool)
    before = csr.neighbors(v).tolist()
    removed = csr.remove_marked(v, marked)
    after = csr.neighbors(v).tolist()
    assert removed == sum(1 for u in before if marked[u])
    assert sorted(after) == sorted(u for u in before if not marked[u])
    csr.check_invariants()


def reference_remove_marked(csr, v, marked):
    """The per-vertex clean-up step the segmented compaction replaced."""
    removed = 0
    for start_arr, size_arr in (
        (csr.out_start, csr.out_size),
        (csr.in_start, csr.in_size),
    ):
        s = start_arr[v]
        size = size_arr[v]
        if size == 0:
            continue
        window = slice(s, s + size)
        entries = csr.col[window]
        keep = ~marked[entries]
        kept = int(keep.sum())
        if kept != size:
            csr.col[s : s + kept] = entries[keep]
            csr.eid[s : s + kept] = csr.eid[window][keep]
            size_arr[v] = kept
            removed += size - kept
    return removed


@settings(max_examples=60, deadline=None)
@given(g=random_graph(), tau=st.floats(0.25, 8.0), data=st.data())
def test_remove_marked_batch_equals_per_vertex_calls(g, tau, data):
    """Property: one call over an array of vertices (repeats and any
    order allowed) leaves the CSR exactly as the per-vertex calls made in
    order do, stale tails included, and removes as many entries.
    Successive rounds compact already-compacted lists."""
    n = g.num_vertices
    expected = build_pruned_csr(g, tau)
    actual = build_pruned_csr(g, tau)
    for _round in range(data.draw(st.integers(1, 3), label="rounds")):
        vertices = data.draw(
            st.lists(st.integers(0, n - 1), max_size=2 * n), label="vertices"
        )
        flags = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n), label="marked"
        )
        marked = np.asarray(flags, dtype=bool)
        want = sum(reference_remove_marked(expected, v, marked) for v in vertices)
        got = actual.remove_marked(np.asarray(vertices, dtype=np.int64), marked)
        assert got == want
        for name in ("col", "eid", "out_start", "out_size", "in_start", "in_size"):
            assert np.array_equal(getattr(actual, name), getattr(expected, name))
    actual.check_invariants()
