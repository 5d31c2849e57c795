"""Tests for the baseline NE partitioner (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import job
from repro.graph import Graph
from repro.graph.generators import chung_lu, erdos_renyi, grid2d, ring, star
from repro.metrics import assert_valid, replication_factor
from repro.partition import RandomStreamPartitioner
from repro.partition.ne import NePartitioner


@pytest.fixture(scope="module")
def social_graph() -> Graph:
    return chung_lu(500, mean_degree=10, exponent=2.3, seed=11, name="soc")


class TestNeBasics:
    def test_valid_complete_assignment(self, social_graph):
        a = NePartitioner().partition(social_graph, 4)
        assert_valid(a, alpha=1.3)
        assert a.num_unassigned == 0

    def test_every_edge_exactly_once(self, social_graph):
        a = NePartitioner().partition(social_graph, 4)
        assert (a.parts >= 0).all()
        assert a.partition_sizes().sum() == social_graph.num_edges

    def test_deterministic_given_seed(self, social_graph):
        a = NePartitioner(seed=5).partition(social_graph, 4)
        b = NePartitioner(seed=5).partition(social_graph, 4)
        assert np.array_equal(a.parts, b.parts)

    def test_seed_changes_result(self, social_graph):
        a = NePartitioner(seed=5).partition(social_graph, 4)
        b = NePartitioner(seed=6).partition(social_graph, 4)
        assert not np.array_equal(a.parts, b.parts)

    def test_k2(self, social_graph):
        a = NePartitioner().partition(social_graph, 2)
        assert_valid(a, alpha=1.3)

    def test_disconnected_components(self):
        # Two rings that share no vertices force re-initialization.
        r1 = ring(30).edges
        r2 = ring(30).edges + 30
        g = Graph.from_edges(np.vstack([r1, r2]), num_vertices=60)
        a = NePartitioner().partition(g, 4)
        assert_valid(a, alpha=1.5)

    def test_grid_low_rf(self):
        # A mesh partitions into contiguous patches: RF should be near 1.
        g = grid2d(20, 20)
        a = NePartitioner().partition(g, 4)
        assert replication_factor(a) < 1.35

    def test_star_graph(self):
        g = star(64)
        a = NePartitioner().partition(g, 4)
        assert_valid(a, alpha=1.3)


class TestNeQuality:
    def test_beats_random_streaming(self, social_graph):
        rf_ne = replication_factor(NePartitioner().partition(social_graph, 8))
        rf_rand = replication_factor(
            RandomStreamPartitioner().partition(social_graph, 8)
        )
        assert rf_ne < rf_rand

    def test_beats_hdrf_on_community_graph(self):
        """The paper's core premise: in-memory NE beats streaming HDRF,
        especially on graphs with locality."""
        from repro.graph.generators import community_web

        g = community_web(10, 60, intra_mean_degree=8, inter_fraction=0.02, seed=9)
        rf_ne = replication_factor(NePartitioner().partition(g, 8))
        rf_hdrf = replication_factor(job("HDRF", g, 8))
        assert rf_ne < rf_hdrf

    def test_balanced_partitions(self, social_graph):
        a = NePartitioner().partition(social_graph, 8)
        sizes = a.partition_sizes()
        cap = -(-social_graph.num_edges // 8)
        # All partitions at most capacity + small spill allowance.
        assert sizes.max() <= cap * 1.3


class TestNeHistory:
    def test_history_disabled_by_default(self, social_graph):
        p = NePartitioner()
        p.partition(social_graph, 4)
        assert p.history is None

    def test_secondary_degrees_exceed_core_degrees(self, social_graph):
        """Figure 5's phenomenon: vertices remaining in S have much higher
        average degree than vertices moved to C."""
        p = NePartitioner(record_history=True)
        p.partition(social_graph, 8)
        h = p.history
        assert h is not None and h.core_degrees and h.secondary_end_degrees
        mean_deg = social_graph.mean_degree
        assert h.normalized_secondary_degree(mean_deg) > h.normalized_core_degree(
            mean_deg
        )

    def test_normalized_degree_empty_history(self):
        from repro.partition.ne import NeHistory

        h = NeHistory()
        assert h.normalized_core_degree(5.0) == 0.0
        assert h.normalized_secondary_degree(0.0) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(6, 40),
    m=st.integers(8, 120),
    k=st.sampled_from([2, 3, 4, 8]),
    seed=st.integers(0, 4),
)
def test_ne_property_random_graphs(n, m, k, seed):
    """Property: NE produces a complete, exactly-once assignment on
    arbitrary random graphs (including disconnected ones)."""
    g = erdos_renyi(n, m, seed=seed)
    if g.num_edges < k:
        return
    a = NePartitioner(seed=seed).partition(g, k)
    assert (a.parts >= 0).all()
    assert a.partition_sizes().sum() == g.num_edges
    # Spill-over may overshoot by one expansion step; alpha stays sane.
    assert_valid(a, alpha=3.0)
