"""Tests for SNE, DNE, the METIS-like multilevel partitioner, and the
simple hybrid baseline of Section 5.4."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import job
from repro.graph import Graph
from repro.graph.generators import chung_lu, community_web, erdos_renyi, grid2d, ring
from repro.metrics import (
    assert_valid,
    edge_balance,
    replication_factor,
)
from repro.partition import (
    DnePartitioner,
    MetisPartitioner,
    NePartitioner,
    RandomStreamPartitioner,
    SimpleHybridPartitioner,
    SnePartitioner,
)
from repro.partition.metis import LevelGraph, coarsen, partition_vertices_kway


@pytest.fixture(scope="module")
def social_graph() -> Graph:
    return chung_lu(600, mean_degree=10, exponent=2.2, seed=33, name="soc")


@pytest.fixture(scope="module")
def web_graph() -> Graph:
    return community_web(8, 70, intra_mean_degree=8, inter_fraction=0.02, seed=34)


class TestSne:
    def test_valid_complete(self, social_graph):
        a = SnePartitioner().partition(social_graph, 4)
        assert a.num_unassigned == 0
        assert_valid(a, alpha=1.05)

    def test_deterministic(self, social_graph):
        a = SnePartitioner().partition(social_graph, 4)
        b = SnePartitioner().partition(social_graph, 4)
        assert np.array_equal(a.parts, b.parts)

    def test_quality_between_streaming_and_ne(self, web_graph):
        """Figure 8: SNE sits between HDRF and NE on quality."""
        k = 8
        rf_sne = replication_factor(SnePartitioner().partition(web_graph, k))
        rf_ne = replication_factor(NePartitioner().partition(web_graph, k))
        rf_rand = replication_factor(
            RandomStreamPartitioner().partition(web_graph, k)
        )
        assert rf_ne <= rf_sne * 1.05
        assert rf_sne < rf_rand

    def test_larger_sample_not_worse(self, social_graph):
        k = 8
        rf_small = replication_factor(
            SnePartitioner(sample_factor=1.0).partition(social_graph, k)
        )
        rf_big = replication_factor(
            SnePartitioner(sample_factor=4.0).partition(social_graph, k)
        )
        assert rf_big <= rf_small * 1.1

    def test_rejects_bad_sample_factor(self):
        with pytest.raises(ValueError):
            SnePartitioner(sample_factor=0.5)

    def test_ring(self):
        a = SnePartitioner().partition(ring(100), 4)
        assert_valid(a, alpha=1.05)


class TestDne:
    def test_valid_complete(self, social_graph):
        a = DnePartitioner().partition(social_graph, 4)
        assert a.num_unassigned == 0
        assert_valid(a, alpha=2.0)  # DNE is allowed to be imbalanced

    def test_deterministic(self, social_graph):
        a = DnePartitioner(seed=3).partition(social_graph, 4)
        b = DnePartitioner(seed=3).partition(social_graph, 4)
        assert np.array_equal(a.parts, b.parts)

    def test_every_edge_once(self, social_graph):
        a = DnePartitioner().partition(social_graph, 8)
        assert a.partition_sizes().sum() == social_graph.num_edges

    def test_worse_than_sequential_ne(self, web_graph):
        """The paper: concurrent expansion degrades replication factor
        relative to sequential NE."""
        k = 8
        rf_dne = replication_factor(DnePartitioner().partition(web_graph, k))
        rf_ne = replication_factor(NePartitioner().partition(web_graph, k))
        assert rf_ne <= rf_dne

    def test_better_than_random(self, web_graph):
        k = 8
        rf_dne = replication_factor(DnePartitioner().partition(web_graph, k))
        rf_rand = replication_factor(
            RandomStreamPartitioner().partition(web_graph, k)
        )
        assert rf_dne < rf_rand

    def test_grid_all_partitions_used(self):
        a = DnePartitioner().partition(grid2d(16, 16), 4)
        assert (a.partition_sizes() > 0).all()


class TestMetisLevel:
    def test_level_from_graph(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 1)], num_vertices=3)
        lvl = LevelGraph.from_graph(g)
        assert lvl.num_vertices == 3
        assert lvl.adj[1] == {0: 1.0, 2: 1.0}
        assert lvl.vertex_weights.tolist() == [1.0, 2.0, 1.0]

    def test_cut_weight(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)], num_vertices=4)
        lvl = LevelGraph.from_graph(g)
        side = np.array([0, 0, 1, 1], dtype=np.int8)
        assert lvl.cut_weight(side) == 1.0

    def test_coarsen_preserves_weight(self):
        g = erdos_renyi(60, 150, seed=2)
        lvl = LevelGraph.from_graph(g)
        coarse, cmap = coarsen(lvl, np.random.default_rng(0))
        assert coarse.total_weight == pytest.approx(lvl.total_weight)
        assert coarse.num_vertices < lvl.num_vertices
        assert (cmap >= 0).all() and cmap.max() == coarse.num_vertices - 1

    def test_coarsen_preserves_cross_edge_weight(self):
        g = erdos_renyi(40, 90, seed=3)
        lvl = LevelGraph.from_graph(g)
        coarse, cmap = coarsen(lvl, np.random.default_rng(1))
        # Total coarse edge weight = fine weight minus contracted edges.
        fine_total = sum(sum(d.values()) for d in lvl.adj) / 2
        contracted = 0.0
        for u in range(lvl.num_vertices):
            for v, w in lvl.adj[u].items():
                if v > u and cmap[u] == cmap[v]:
                    contracted += w
        coarse_total = sum(sum(d.values()) for d in coarse.adj) / 2
        assert coarse_total == pytest.approx(fine_total - contracted)


class TestMetisKway:
    def test_vertex_partition_complete(self, social_graph):
        vparts = partition_vertices_kway(social_graph, 4)
        assert vparts.shape == (social_graph.num_vertices,)
        assert set(np.unique(vparts)) <= set(range(4))

    def test_vertex_balance_by_degree_weight(self, social_graph):
        vparts = partition_vertices_kway(social_graph, 4)
        weights = np.maximum(social_graph.degrees, 1).astype(float)
        loads = np.bincount(vparts, weights=weights, minlength=4)
        assert loads.max() <= loads.sum() / 4 * 1.6

    def test_edge_assignment_valid(self, social_graph):
        a = MetisPartitioner().partition(social_graph, 4)
        assert a.num_unassigned == 0
        assert_valid(a, alpha=2.5)  # vertex partitioners drift on alpha

    def test_low_cut_on_communities(self, web_graph):
        """Multilevel partitioning must find planted communities:
        far better replication factor than random assignment."""
        k = 4
        rf_metis = replication_factor(MetisPartitioner().partition(web_graph, k))
        rf_rand = replication_factor(
            RandomStreamPartitioner().partition(web_graph, k)
        )
        assert rf_metis < 0.6 * rf_rand

    def test_odd_k(self, social_graph):
        a = MetisPartitioner().partition(social_graph, 5)
        assert set(np.unique(a.parts)) <= set(range(5))
        assert (a.partition_sizes() > 0).all()

    def test_deterministic(self, social_graph):
        a = MetisPartitioner(seed=1).partition(social_graph, 4)
        b = MetisPartitioner(seed=1).partition(social_graph, 4)
        assert np.array_equal(a.parts, b.parts)


class TestSimpleHybrid:
    def test_valid_complete(self, social_graph):
        a = SimpleHybridPartitioner(tau=1.0).partition(social_graph, 4)
        assert a.num_unassigned == 0
        assert_valid(a, alpha=1.4)

    def test_worse_than_hep_with_much_streaming(self, social_graph):
        """Figure 9's point: at low tau the random streaming phase hurts —
        HEP's informed HDRF phase wins clearly."""
        k = 8
        rf_hybrid = replication_factor(
            SimpleHybridPartitioner(tau=0.5).partition(social_graph, k)
        )
        rf_hep = replication_factor(job("HEP", social_graph, k, tau=0.5))
        assert rf_hep < rf_hybrid

    def test_tau_huge_equals_pure_ne(self, social_graph):
        a = SimpleHybridPartitioner(tau=1e9, seed=4).partition(social_graph, 4)
        b = NePartitioner(seed=4).partition(social_graph, 4)
        assert np.array_equal(a.parts, b.parts)

    def test_rejects_bad_tau(self):
        with pytest.raises(Exception):
            SimpleHybridPartitioner(tau=0)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(10, 40),
    m=st.integers(12, 100),
    k=st.sampled_from([2, 4]),
    seed=st.integers(0, 3),
)
def test_baselines_property_random_graphs(n, m, k, seed):
    """Property: the heavyweight baselines always produce complete,
    exactly-once assignments."""
    g = erdos_renyi(n, m, seed=seed)
    if g.num_edges < k:
        return
    for partitioner in (
        SnePartitioner(seed=seed),
        DnePartitioner(seed=seed),
        MetisPartitioner(seed=seed),
        SimpleHybridPartitioner(tau=1.0, seed=seed),
    ):
        a = partitioner.partition(g, k)
        assert a.num_unassigned == 0, partitioner.name
        assert a.partition_sizes().sum() == g.num_edges, partitioner.name
        assert 0 <= a.parts.min() and a.parts.max() < k, partitioner.name
