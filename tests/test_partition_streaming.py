"""Tests for the streaming partitioners: HDRF, Greedy, DBH, Grid (run as
jobs), Random, ADWISE — validity, balance, determinism and quality
relationships."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import job, repair_overflow_loop
from repro.errors import CapacityError, ConfigurationError, PartitioningError
from repro.graph import Graph
from repro.graph.generators import chung_lu, erdos_renyi, ring, star
from repro.metrics import assert_valid, edge_balance, replication_factor
from repro.partition import AdwisePartitioner, RandomStreamPartitioner
from repro.partition.base import capacity_bound
from repro.partition.dbh import repair_overflow
from repro.partition.grid import grid_shape


def _job(algo):
    """``partition(graph, k)`` of the ``algo`` job."""
    return lambda graph, k: job(algo, graph, k)


#: ``partition(graph, k)`` callables, one per streaming partitioner
ALL_STREAMING = [
    pytest.param(_job("HDRF"), id="HDRF"),
    pytest.param(_job("Greedy"), id="Greedy"),
    pytest.param(_job("DBH"), id="DBH"),
    pytest.param(_job("Grid"), id="Grid"),
    pytest.param(RandomStreamPartitioner().partition, id="Random"),
    pytest.param(AdwisePartitioner(window=16).partition, id="ADWISE"),
]


@pytest.fixture(scope="module")
def social_graph() -> Graph:
    return chung_lu(600, mean_degree=10, exponent=2.2, seed=42, name="social")


@pytest.mark.parametrize("partition", ALL_STREAMING)
@pytest.mark.parametrize("k", [2, 4, 8])
class TestAllStreamingValid:
    def test_valid_and_balanced(self, partition, k, social_graph):
        assignment = partition(social_graph, k)
        assert_valid(assignment, alpha=1.0)

    def test_replication_factor_bounds(self, partition, k, social_graph):
        assignment = partition(social_graph, k)
        rf = replication_factor(assignment)
        assert 1.0 <= rf <= k


@pytest.mark.parametrize("partition", ALL_STREAMING)
def test_deterministic(partition, social_graph):
    a = partition(social_graph, 4)
    b = partition(social_graph, 4)
    assert np.array_equal(a.parts, b.parts)


@pytest.mark.parametrize("partition", ALL_STREAMING)
def test_rejects_k_below_two(partition, social_graph):
    with pytest.raises(ConfigurationError):
        partition(social_graph, 1)


@pytest.mark.parametrize("partition", ALL_STREAMING)
def test_rejects_empty_graph(partition):
    g = Graph.from_edges(np.empty((0, 2)), num_vertices=4)
    with pytest.raises(PartitioningError):
        partition(g, 2)


class TestHdrf:
    def test_star_graph_hub_replicated_leaves_not(self):
        g = star(64)
        assignment = job("HDRF", g, 4)
        assert_valid(assignment, alpha=1.0)
        from repro.metrics import replicas_per_vertex

        replicas = replicas_per_vertex(assignment)
        assert replicas[0] == 4          # hub on every partition
        assert (replicas[1:] == 1).all()  # leaves never replicated

    def test_beats_random_on_powerlaw(self, social_graph):
        rf_hdrf = replication_factor(job("HDRF", social_graph, 8))
        rf_rand = replication_factor(
            RandomStreamPartitioner().partition(social_graph, 8)
        )
        assert rf_hdrf < rf_rand

    def test_exact_degrees_mode(self, social_graph):
        a = job("HDRF", social_graph, 4, algo_params={"exact_degrees": True})
        assert_valid(a, alpha=1.0)

    def test_shuffle_mode_differs(self, social_graph):
        a = job("HDRF", social_graph, 4)
        b = job("HDRF", social_graph, 4, order="random", seed=3)
        assert not np.array_equal(a.parts, b.parts)
        assert_valid(b, alpha=1.0)

    def test_alpha_relaxation_respected(self, social_graph):
        a = job("HDRF", social_graph, 4, alpha=1.2)
        assert_valid(a, alpha=1.2)

    def test_lambda_zero_ignores_balance_softly(self):
        # With lam=0 the balance term vanishes; capacity still enforced.
        g = ring(40)
        a = job("HDRF", g, 4, algo_params={"lam": 0.0})
        assert_valid(a, alpha=1.0)


class TestGreedy:
    def test_ring_locality(self):
        # On a ring, greedy should chain edges onto the partitions of
        # their endpoints, giving far lower RF than random.
        g = ring(200)
        rf_greedy = replication_factor(job("Greedy", g, 4))
        rf_rand = replication_factor(RandomStreamPartitioner().partition(g, 4))
        assert rf_greedy < rf_rand

    def test_hdrf_not_worse_than_greedy_on_powerlaw(self, social_graph):
        rf_hdrf = replication_factor(job("HDRF", social_graph, 8))
        rf_greedy = replication_factor(job("Greedy", social_graph, 8))
        # The paper: "the Greedy strategy is clearly outperformed by HDRF".
        assert rf_hdrf <= rf_greedy * 1.1


class TestDbh:
    def test_low_degree_endpoint_hashed(self):
        g = star(32)
        a = job("DBH", g, 4)
        # Every edge hashes its leaf (degree 1 < hub degree); leaves with
        # the same hash land together, hub spreads over partitions.
        from repro.metrics import replicas_per_vertex

        assert (replicas_per_vertex(a)[1:] == 1).all()

    def test_fully_deterministic_under_salt(self, social_graph):
        a = job("DBH", social_graph, 4, algo_params={"salt": 1})
        b = job("DBH", social_graph, 4, algo_params={"salt": 2})
        assert not np.array_equal(a.parts, b.parts)

    def test_near_balanced_before_repair(self, social_graph):
        a = job("DBH", social_graph, 4)
        assert edge_balance(a) <= 1.0 + 4 / social_graph.num_edges * 4

    @settings(max_examples=200)
    @given(
        k=st.integers(min_value=2, max_value=19),
        m=st.integers(min_value=0, max_value=400),
        alpha=st.sampled_from([1.0, 1.05, 1.5]),
        skew=st.floats(min_value=0.0, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_repair_overflow_matches_loop(self, k, m, alpha, skew, seed):
        """The vectorized repair moves the same edges as the loop."""
        rng = np.random.default_rng(seed)
        weights = np.arange(1, k + 1, dtype=np.float64) ** skew
        parts = rng.choice(k, size=m, p=weights / weights.sum())
        parts = parts.astype(np.int32)
        capacity = capacity_bound(m, k, alpha)
        expected = repair_overflow_loop(parts, k, capacity)
        repaired = repair_overflow(parts, k, capacity)
        assert np.array_equal(repaired, expected)
        assert np.bincount(repaired, minlength=k).max() <= capacity

    def test_repair_overflow_without_room_raises(self):
        """A capacity too small for all edges is a CapacityError."""
        parts = np.array([0, 0, 1, 1, 1, 1, 1], dtype=np.int32)
        with pytest.raises(IndexError):
            repair_overflow_loop(parts, 2, 3)
        with pytest.raises(CapacityError, match="2 edges over capacity 3"):
            repair_overflow(parts, 2, 3)


class TestGrid:
    def test_grid_shape(self):
        assert grid_shape(4) == (2, 2)
        assert grid_shape(32) == (4, 8)
        assert grid_shape(256) == (16, 16)
        assert grid_shape(7) == (1, 7)

    def test_replication_bounded_by_row_plus_col(self, social_graph):
        k = 16
        rows, cols = grid_shape(k)
        a = job("Grid", social_graph, k)
        from repro.metrics import replicas_per_vertex

        assert replicas_per_vertex(a).max() <= rows + cols


class TestAdwise:
    def test_window_one_still_valid(self, social_graph):
        a = AdwisePartitioner(window=1).partition(social_graph, 4)
        assert_valid(a, alpha=1.0)

    def test_larger_window_not_worse(self, social_graph):
        rf1 = replication_factor(
            AdwisePartitioner(window=1).partition(social_graph, 8)
        )
        rf64 = replication_factor(
            AdwisePartitioner(window=64).partition(social_graph, 8)
        )
        assert rf64 <= rf1 * 1.15

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AdwisePartitioner(window=0)


class TestRandom:
    def test_seed_controls_result(self, social_graph):
        a = RandomStreamPartitioner(seed=1).partition(social_graph, 4)
        b = RandomStreamPartitioner(seed=2).partition(social_graph, 4)
        assert not np.array_equal(a.parts, b.parts)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(8, 60),
    m=st.integers(10, 150),
    k=st.sampled_from([2, 3, 5, 8]),
    seed=st.integers(0, 5),
)
def test_streaming_partitioners_random_graphs(n, m, k, seed):
    """Property: every streaming partitioner yields a complete, balanced,
    in-range assignment on arbitrary random graphs."""
    g = erdos_renyi(n, m, seed=seed)
    if g.num_edges == 0:
        return
    for partition in (
        _job("HDRF"),
        _job("Greedy"),
        _job("DBH"),
        _job("Grid"),
        RandomStreamPartitioner(seed=seed).partition,
        AdwisePartitioner(window=8).partition,
    ):
        assignment = partition(g, k)
        assert_valid(assignment, alpha=1.0)
