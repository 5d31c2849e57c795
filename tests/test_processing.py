"""Tests for the graph-processing simulator: algorithm correctness
(against networkx) and the cost model's paper-shaped behavior."""

import networkx as nx
import numpy as np
import pytest

from references import job
from repro.graph import Graph
from repro.graph.generators import chung_lu, community_web, erdos_renyi, ring
from repro.partition import PartitionAssignment, RandomStreamPartitioner
from repro.partition.ne import NePartitioner
from repro.processing import (
    CostModel,
    VertexCutEngine,
    bfs,
    connected_components,
    pagerank,
)


@pytest.fixture(scope="module")
def graph() -> Graph:
    return chung_lu(300, mean_degree=8, exponent=2.3, seed=55, name="g")


@pytest.fixture(scope="module")
def engine(graph) -> VertexCutEngine:
    assignment = job("HDRF", graph, 4)
    return VertexCutEngine(assignment)


def to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(map(tuple, graph.edges.tolist()))
    return g


class TestEngineSetup:
    def test_cover_and_replicas(self, graph, engine):
        assert engine.cover.shape == (4, graph.num_vertices)
        covered = graph.degrees > 0
        assert (engine.replicas[covered] >= 1).all()
        assert (engine.replicas[~covered] == 0).all()

    def test_local_degrees_sum_to_degrees(self, graph, engine):
        assert np.array_equal(engine.local_degree.sum(axis=0), graph.degrees)

    def test_replication_factor_matches_metric(self, graph, engine):
        from repro.metrics import replication_factor

        assert engine.replication_factor() == pytest.approx(
            replication_factor(engine.assignment)
        )

    def test_superstep_cost_empty(self, graph, engine):
        seconds, messages = engine.superstep_cost(
            np.zeros(graph.num_vertices, dtype=bool)
        )
        assert seconds == engine.cost.barrier_cost
        assert messages == 0

    def test_superstep_cost_monotone_in_active(self, graph, engine):
        n = graph.num_vertices
        some = np.zeros(n, dtype=bool)
        some[np.flatnonzero(graph.degrees > 0)[:10]] = True
        all_active = graph.degrees > 0
        s_some, m_some = engine.superstep_cost(some)
        s_all, m_all = engine.superstep_cost(all_active)
        assert s_some <= s_all
        assert m_some <= m_all


class TestPageRank:
    def test_matches_networkx(self, graph, engine):
        result = pagerank(engine, iterations=60)
        expected = nx.pagerank(to_networkx(graph), alpha=0.85, max_iter=200, tol=1e-10)
        ours = result.values / result.values.sum()
        theirs = np.array([expected[v] for v in range(graph.num_vertices)])
        assert np.allclose(ours, theirs, atol=5e-4)

    def test_supersteps_equal_iterations(self, engine):
        assert pagerank(engine, iterations=7).supersteps == 7

    def test_costs_accumulate(self, engine):
        r10 = pagerank(engine, iterations=10)
        r20 = pagerank(engine, iterations=20)
        assert r20.sim_seconds == pytest.approx(2 * r10.sim_seconds, rel=1e-6)
        assert r20.total_messages == 2 * r10.total_messages


class TestBfs:
    def test_distances_match_networkx(self, graph, engine):
        result = bfs(engine, seeds=[1, 5])
        g = to_networkx(graph)
        for run, source in enumerate([1, 5]):
            expected = nx.single_source_shortest_path_length(g, source)
            dist = result.values[run]
            for v in range(graph.num_vertices):
                if v in expected:
                    assert dist[v] == expected[v], (source, v)
                else:
                    assert dist[v] == -1

    def test_ring_diameter_steps(self):
        g = ring(40)
        engine = VertexCutEngine(RandomStreamPartitioner().partition(g, 4))
        result = bfs(engine, seeds=[0])
        # A 40-ring explored from one vertex needs 20 frontier waves; the
        # final wave with no new vertices ends the loop.
        assert 20 <= result.supersteps <= 21

    def test_multi_seed_accumulates(self, engine):
        one = bfs(engine, seeds=[3])
        two = bfs(engine, seeds=[3, 3])
        assert two.sim_seconds == pytest.approx(2 * one.sim_seconds, rel=1e-6)


class TestConnectedComponents:
    def test_labels_match_networkx(self, graph, engine):
        result = connected_components(engine)
        g = to_networkx(graph)
        for component in nx.connected_components(g):
            members = sorted(component)
            labels = {int(result.values[v]) for v in members}
            assert len(labels) == 1
            assert labels.pop() == min(members)

    def test_two_rings(self):
        r1 = ring(20).edges
        r2 = ring(20).edges + 20
        g = Graph.from_edges(np.vstack([r1, r2]), num_vertices=40)
        engine = VertexCutEngine(RandomStreamPartitioner().partition(g, 2))
        result = connected_components(engine)
        assert set(result.values[:20].tolist()) == {0}
        assert set(result.values[20:].tolist()) == {20}

    def test_terminates_and_goes_quiet(self, engine):
        result = connected_components(engine)
        assert result.supersteps < 60


class TestCostShape:
    """The paper's Table 4 phenomena must fall out of the cost model."""

    def test_lower_rf_means_faster_pagerank(self):
        g = community_web(8, 60, intra_mean_degree=8, inter_fraction=0.02, seed=66)
        k = 8
        a_ne = NePartitioner().partition(g, k)
        a_rand = RandomStreamPartitioner().partition(g, k)
        t_ne = pagerank(VertexCutEngine(a_ne), iterations=20).sim_seconds
        t_rand = pagerank(VertexCutEngine(a_rand), iterations=20).sim_seconds
        from repro.metrics import replication_factor

        assert replication_factor(a_ne) < replication_factor(a_rand)
        assert t_ne < t_rand

    def test_cc_cheaper_than_pagerank(self, engine):
        t_cc = connected_components(engine).sim_seconds
        t_pr = pagerank(engine, iterations=100).sim_seconds
        assert t_cc < t_pr

    def test_custom_cost_model_scales(self, graph):
        a = job("DBH", graph, 4)
        cheap = VertexCutEngine(a, CostModel(barrier_cost=0.0))
        costly = VertexCutEngine(
            a,
            CostModel(
                edge_cost=2e-3, vertex_cost=1e-3, message_cost=2e-3, barrier_cost=0.0
            ),
        )
        t1 = pagerank(cheap, iterations=5).sim_seconds
        t2 = pagerank(costly, iterations=5).sim_seconds
        assert t2 == pytest.approx(10 * t1, rel=1e-6)

    def test_vertex_balance_affects_runtime(self):
        """Two assignments with identical RF but different vertex balance
        must cost differently (the IT-graph effect of Table 5)."""
        g = erdos_renyi(60, 150, seed=8)
        m = g.num_edges
        # Balanced: stripe edges round-robin.  Skewed: contiguous halves
        # (first partition sees a denser induced region).
        balanced = PartitionAssignment(g, 2, np.arange(m, dtype=np.int32) % 2)
        halves = np.zeros(m, dtype=np.int32)
        halves[m // 2 :] = 1
        skewed = PartitionAssignment(g, 2, halves)
        t_bal = pagerank(VertexCutEngine(balanced), iterations=5).sim_seconds
        t_skew = pagerank(VertexCutEngine(skewed), iterations=5).sim_seconds
        assert t_bal != t_skew
