"""Tests for incremental HEP maintenance (insertions and deletions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import job
from repro.core.incremental import IncrementalHep
from repro.errors import CapacityError, ConfigurationError
from repro.graph import Graph
from repro.graph.generators import chung_lu, erdos_renyi
from repro.metrics import assert_valid, replication_factor


@pytest.fixture(scope="module")
def base_graph():
    return chung_lu(400, mean_degree=10, exponent=2.2, seed=71, name="base")


@pytest.fixture()
def inc(base_graph):
    return IncrementalHep(base_graph, k=8, tau=2.0)


class TestConstruction:
    def test_initial_state_consistent(self, base_graph, inc):
        assert inc.num_edges == base_graph.num_edges
        assert inc.loads.sum() == base_graph.num_edges
        assert np.array_equal(inc.degrees, base_graph.degrees)
        # RF from incidence equals RF from the materialized assignment.
        assert inc.replication_factor() == pytest.approx(
            replication_factor(inc.current_assignment())
        )

    def test_matches_batch_hep_initially(self, base_graph, inc):
        batch = job("HEP", base_graph, 8, tau=2.0)
        assert replication_factor(batch) == pytest.approx(
            inc.replication_factor()
        )

    def test_rejects_bad_slack(self, base_graph):
        with pytest.raises(ConfigurationError):
            IncrementalHep(base_graph, 4, slack=0.9)


class TestInsert:
    def test_insert_updates_state(self, inc):
        before = inc.num_edges
        p = inc.insert_edge(0, 1) if not _has_edge(inc, 0, 1) else None
        if p is None:
            return  # edge existed; covered by duplicate test
        assert 0 <= p < 8
        assert inc.num_edges == before + 1
        assert inc.incidence[p, 0] >= 1 and inc.incidence[p, 1] >= 1

    def test_insert_duplicate_rejected(self, base_graph, inc):
        u, v = base_graph.edges[0]
        with pytest.raises(ConfigurationError):
            inc.insert_edge(int(u), int(v))

    def test_insert_self_loop_rejected(self, inc):
        with pytest.raises(ConfigurationError):
            inc.insert_edge(3, 3)

    def test_insert_out_of_universe(self, inc):
        with pytest.raises(ConfigurationError):
            inc.insert_edge(0, 10**6)

    def test_inserts_always_find_room(self):
        """The moving capacity bound guarantees an open partition by
        pigeonhole (k * ceil((m+1)/k) >= m+1), so a long insertion burst
        never raises CapacityError and balance stays within the slack."""
        tiny = Graph.from_edges([(0, 1), (1, 2)], num_vertices=12)
        small = IncrementalHep(tiny, k=2, tau=10.0, slack=1.0)
        pairs = [(a, b) for a in range(12) for b in range(a + 1, 12)]
        inserted = 2
        for a, b in pairs:
            if (min(a, b), max(a, b)) in small._edge_index:
                continue
            small.insert_edge(a, b)
            inserted += 1
        assert small.num_edges == inserted
        assert_valid(small.current_assignment(), alpha=1.1)

    def test_quality_stays_close_after_small_update(self, base_graph):
        """The incremental promise: after a 5% insertion burst the RF is
        within a modest factor of re-partitioning from scratch."""
        inc = IncrementalHep(base_graph, k=8, tau=2.0)
        rng = np.random.default_rng(5)
        added = 0
        existing = {(min(u, v), max(u, v)) for u, v in base_graph.edges.tolist()}
        target = base_graph.num_edges // 20
        while added < target:
            u, v = rng.integers(0, base_graph.num_vertices, size=2)
            key = (min(u, v), max(u, v))
            if u == v or key in existing:
                continue
            inc.insert_edge(int(u), int(v))
            existing.add(key)
            added += 1
        updated = inc.current_assignment()
        assert_valid(updated, alpha=1.2)
        scratch = job("HEP", updated.graph, 8, tau=2.0)
        assert inc.replication_factor() <= replication_factor(scratch) * 1.25


class TestDelete:
    def test_delete_updates_state(self, base_graph, inc):
        u, v = (int(x) for x in base_graph.edges[0])
        before_rf = inc.replication_factor()
        inc.delete_edge(u, v)
        assert inc.num_edges == base_graph.num_edges - 1
        assert inc.replication_factor() <= before_rf + 1e-9

    def test_delete_retires_replicas(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        inc = IncrementalHep(g, k=2, tau=10.0)
        p = inc._parts[0]
        inc.delete_edge(0, 1)
        assert inc.incidence[p, 0] == 0  # vertex 0 had only that edge

    def test_delete_missing_rejected(self, inc):
        with pytest.raises(ConfigurationError):
            inc.delete_edge(0, 399)
        u, v = (int(x) for x in inc.current_assignment().graph.edges[0])
        inc.delete_edge(u, v)
        with pytest.raises(ConfigurationError):
            inc.delete_edge(u, v)

    def test_reinsert_after_delete(self, base_graph, inc):
        u, v = (int(x) for x in base_graph.edges[0])
        inc.delete_edge(u, v)
        p = inc.insert_edge(u, v)
        assert 0 <= p < 8
        assert inc.num_edges == base_graph.num_edges


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 5),
    ops=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40),
)
def test_incremental_consistency_property(seed, ops):
    """Property: after any insert/delete sequence, the materialized
    assignment is valid and the live counters match it exactly."""
    g = erdos_renyi(20, 40, seed=seed)
    if g.num_edges < 4:
        return
    inc = IncrementalHep(g, k=4, tau=2.0, slack=1.5)
    existing = {(min(u, v), max(u, v)) for u, v in g.edges.tolist()}
    for u, v in ops:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        try:
            if key in existing:
                inc.delete_edge(u, v)
                existing.discard(key)
            else:
                inc.insert_edge(u, v)
                existing.add(key)
        except CapacityError:
            pass
    assignment = inc.current_assignment()
    assert assignment.graph.num_edges == inc.num_edges
    assert (assignment.parts >= 0).all()
    assert np.array_equal(assignment.partition_sizes(), inc.loads)
    assert inc.replication_factor() == pytest.approx(
        replication_factor(assignment)
    )


def _has_edge(inc: IncrementalHep, u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in inc._edge_index
