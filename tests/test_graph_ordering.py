"""Tests for edge-stream orderings and partition persistence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import job
from repro.errors import ConfigurationError, GraphFormatError
from repro.graph import Graph, read_binary_edgelist
from repro.graph.generators import chung_lu, erdos_renyi, ring, star
from repro.graph.ordering import ORDERINGS, edge_order, reorder_edges
from repro.graph.partition_io import (
    read_assignment,
    write_assignment,
    write_partition_edgelists,
)
from repro.metrics import replication_factor
from repro.metrics.communication import (
    boundary_vertices_per_partition,
    communication_volume,
    num_cut_vertices,
)
from repro.partition import PartitionAssignment


@pytest.fixture(scope="module")
def graph():
    return chung_lu(300, mean_degree=8, exponent=2.3, seed=41, name="g")


class TestEdgeOrder:
    @pytest.mark.parametrize("strategy", ORDERINGS)
    def test_is_permutation(self, graph, strategy):
        perm = edge_order(graph, strategy, seed=3)
        assert sorted(perm.tolist()) == list(range(graph.num_edges))

    def test_natural_is_identity(self, graph):
        assert np.array_equal(
            edge_order(graph, "natural"), np.arange(graph.num_edges)
        )

    def test_random_depends_on_seed(self, graph):
        a = edge_order(graph, "random", seed=1)
        b = edge_order(graph, "random", seed=2)
        assert not np.array_equal(a, b)

    def test_degree_order_keys_on_min_endpoint(self):
        g = Graph.from_edges([(0, 1), (2, 3), (0, 2), (0, 3)], num_vertices=4)
        perm = edge_order(g, "degree")
        # "Hubs first" means both endpoints high: the edge whose weaker
        # endpoint has degree 1 — (0,1) — must stream last.
        assert g.edges[perm[-1]].tolist() == [0, 1]

    def test_adversarial_puts_hub_edges_last(self):
        g = star(20)
        extra = Graph.from_edges(
            np.vstack([g.edges, [[1, 2]]]), num_vertices=20
        )
        perm = edge_order(extra, "adversarial")
        # Edge (1,2) touches only low-degree vertices: must stream first.
        assert extra.edges[perm[0]].tolist() == [1, 2]

    def test_bfs_groups_neighborhoods(self):
        g = ring(30)
        perm = edge_order(g, "bfs")
        # BFS expands the ring from one start in both directions, so each
        # streamed edge touches a vertex seen within the last few edges
        # (window locality) — unlike a random shuffle.
        def window_locality(edges, window=4):
            hits = 0
            for i in range(1, len(edges)):
                recent = {
                    x
                    for e in edges[max(0, i - window) : i]
                    for x in e.tolist()
                }
                if set(edges[i].tolist()) & recent:
                    hits += 1
            return hits / (len(edges) - 1)

        bfs_locality = window_locality(g.edges[perm])
        random_locality = window_locality(
            g.edges[edge_order(g, "random", seed=1)]
        )
        assert bfs_locality > 0.9
        assert bfs_locality > random_locality

    def test_unknown_strategy(self, graph):
        with pytest.raises(ConfigurationError):
            edge_order(graph, "sorted-by-vibes")


class TestReorder:
    def test_round_trip_assignment_mapping(self, graph):
        perm = edge_order(graph, "random", seed=5)
        reordered = reorder_edges(graph, perm)
        a = job("HDRF", reordered, 4)
        # Map back to canonical order and check metric equivalence.
        parts = np.empty(graph.num_edges, dtype=np.int32)
        parts[perm] = a.parts
        back = PartitionAssignment(graph, 4, parts)
        assert replication_factor(back) == pytest.approx(replication_factor(a))

    def test_rejects_partial_permutation(self, graph):
        with pytest.raises(ConfigurationError):
            reorder_edges(graph, np.zeros(graph.num_edges, dtype=np.int64))


class TestCommunicationMetrics:
    def test_star_figure1_numbers(self):
        g = star(7)
        parts = np.array([0, 0, 0, 1, 1, 1], dtype=np.int32)
        a = PartitionAssignment(g, 2, parts)
        assert communication_volume(a) == 1   # the hub's one extra replica
        assert num_cut_vertices(a) == 1
        assert boundary_vertices_per_partition(a).tolist() == [1, 1]

    def test_single_partition_no_communication(self, graph):
        a = PartitionAssignment(
            graph, 1, np.zeros(graph.num_edges, dtype=np.int32)
        )
        assert communication_volume(a) == 0
        assert num_cut_vertices(a) == 0

    def test_volume_consistent_with_rf(self, graph):
        a = job("HDRF", graph, 8)
        covered = int((graph.degrees > 0).sum())
        expected = replication_factor(a) * covered - covered
        assert communication_volume(a) == pytest.approx(expected)


class TestPartitionIo:
    def test_assignment_round_trip(self, graph, tmp_path):
        a = job("HDRF", graph, 4)
        path = tmp_path / "parts.txt"
        write_assignment(a, path)
        back = read_assignment(graph, path)
        assert back.k == 4
        assert np.array_equal(back.parts, a.parts)

    def test_read_detects_wrong_graph(self, graph, tmp_path):
        a = job("HDRF", graph, 4)
        path = tmp_path / "parts.txt"
        write_assignment(a, path)
        other = erdos_renyi(50, 60, seed=1)
        with pytest.raises(GraphFormatError):
            read_assignment(other, path)

    def test_read_missing_sidecar(self, graph, tmp_path):
        path = tmp_path / "parts.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            read_assignment(graph, path)

    def test_partition_edgelists_cover_graph(self, graph, tmp_path):
        a = job("HDRF", graph, 4)
        paths = write_partition_edgelists(a, tmp_path / "shards")
        assert len(paths) == 4
        total = 0
        for p, path in enumerate(paths):
            shard = read_binary_edgelist(path, num_vertices=graph.num_vertices)
            assert shard.num_edges == int((a.parts == p).sum())
            total += shard.num_edges
        assert total == graph.num_edges

    def test_empty_partition_file_exists(self, tmp_path):
        g = Graph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        a = PartitionAssignment(g, 3, np.array([0, 0], dtype=np.int32))
        paths = write_partition_edgelists(a, tmp_path / "shards")
        assert paths[2].exists() and paths[2].stat().st_size == 0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(5, 40),
    m=st.integers(5, 100),
    strategy=st.sampled_from(ORDERINGS),
    seed=st.integers(0, 4),
)
def test_ordering_permutation_property(n, m, strategy, seed):
    g = erdos_renyi(n, m, seed=seed)
    if g.num_edges == 0:
        return
    perm = edge_order(g, strategy, seed=seed)
    assert sorted(perm.tolist()) == list(range(g.num_edges))
    reordered = reorder_edges(g, perm)
    # Same multiset of undirected edges.
    canon = lambda E: sorted((min(u, v), max(u, v)) for u, v in E.tolist())
    assert canon(reordered.edges) == canon(g.edges)
