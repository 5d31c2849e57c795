"""Out-of-core HEP pipeline: equivalence, budgeting, buffering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hep import HepPartitioner
from repro.errors import ConfigurationError, PartitioningError
from repro.graph import Graph, generators, write_binary_edgelist
from repro.metrics import assert_valid
from repro.runtime import make_job, run_job
from repro.stream import InMemoryEdgeSource, SpillFile, scan_source
from strategies import graphs, power_law_graphs


@pytest.fixture(scope="module")
def skewed_graph():
    return generators.chung_lu(600, mean_degree=8, exponent=2.1, seed=11)


class TestScanSource:
    def test_counts_match_graph(self, skewed_graph):
        stats = scan_source(InMemoryEdgeSource(skewed_graph, 97))
        assert stats.num_edges == skewed_graph.num_edges
        assert stats.num_vertices == skewed_graph.num_vertices
        assert np.array_equal(stats.degrees, skewed_graph.degrees)
        assert stats.mean_degree == pytest.approx(skewed_graph.mean_degree)

    def test_isolated_trailing_vertices_kept(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_vertices=10)
        stats = scan_source(InMemoryEdgeSource(g, 10))
        assert stats.num_vertices == 10
        assert stats.degrees.size == 10


class TestEquivalence:
    """Out-of-core ≡ in-memory, the pipeline's defining property."""

    @settings(max_examples=30, deadline=None)
    @given(
        graph=graphs(min_edges=2, max_edges=50, max_vertices=16),
        chunk_size=st.integers(min_value=1, max_value=64),
        k=st.integers(min_value=2, max_value=4),
        tau=st.sampled_from([0.5, 1.0, 2.0, 10.0]),
    )
    def test_property_identical_parts(self, graph, chunk_size, k, tau):
        expected = HepPartitioner(tau=tau).partition(graph, k)
        result = run_job(
            make_job("HEP", graph, k, tau=tau, chunk_size=chunk_size), graph
        )
        assert np.array_equal(result.parts, expected.parts)

    @settings(max_examples=10, deadline=None)
    @given(graph=power_law_graphs(max_vertices=80), chunk_size=st.integers(1, 40))
    def test_property_power_law_tau_one(self, graph, chunk_size):
        """tau=1 pushes real edge mass through the spill path."""
        expected = HepPartitioner(tau=1.0).partition(graph, 3)
        result = run_job(
            make_job("HEP", graph, 3, tau=1.0, chunk_size=chunk_size), graph
        )
        assert np.array_equal(result.parts, expected.parts)

    def test_file_source_identical(self, skewed_graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(skewed_graph, path)
        expected = HepPartitioner(tau=1.0).partition(skewed_graph, 8)
        result = run_job(make_job("HEP", path, 8, tau=1.0, chunk_size=123))
        assert np.array_equal(result.parts, expected.parts)
        assert result.replication_factor == pytest.approx(
            expected.replication_factor()
        )
        assert result.edge_balance == pytest.approx(expected.balance())

    def test_assignment_is_valid(self, skewed_graph):
        result = run_job(
            make_job("HEP", skewed_graph, 4, tau=1.0, chunk_size=64),
            skewed_graph,
        )
        assignment = result.to_assignment(skewed_graph)
        assert_valid(assignment)
        assert result.num_unassigned == 0


class TestSpillBehavior:
    def test_spill_nonempty_for_tau_one(self, skewed_graph, tmp_path):
        """Acceptance: for tau=1 the h2h edges really hit the disk."""
        spill_dir = tmp_path / "spills"
        spec = make_job(
            "HEP", skewed_graph, 4, tau=1.0, chunk_size=64,
            spill_dir=str(spill_dir),
        )
        result = run_job(spec, skewed_graph)
        assert result.breakdown.num_h2h_edges > 0
        assert result.spill_bytes == result.breakdown.num_h2h_edges * 24
        # The spill file itself is cleaned up after the run.
        assert list(spill_dir.glob("h2h-spill-*")) == []

    def test_compressed_spill_identical_parts(self, skewed_graph):
        """Compression changes the spill encoding, never the assignment."""
        raw = run_job(
            make_job("HEP", skewed_graph, 4, tau=1.0, chunk_size=64),
            skewed_graph,
        )
        zlibbed = run_job(
            make_job(
                "HEP", skewed_graph, 4, tau=1.0, chunk_size=64,
                spill_compression="zlib",
            ),
            skewed_graph,
        )
        assert np.array_equal(raw.parts, zlibbed.parts)
        assert zlibbed.spill_bytes < raw.spill_bytes

    def test_prefetch_identical_parts(self, skewed_graph, tmp_path):
        from repro.graph import write_binary_edgelist

        path = tmp_path / "g.bin"
        write_binary_edgelist(skewed_graph, path)
        plain = run_job(make_job("HEP", path, 4, tau=1.0, chunk_size=91))
        prefetched = run_job(
            make_job("HEP", path, 4, tau=1.0, chunk_size=91, prefetch=3)
        )
        assert np.array_equal(plain.parts, prefetched.parts)

    def test_spill_chunks_bounded(self, skewed_graph, tmp_path):
        """No spill read-back block may exceed the chunk size."""
        with SpillFile(dir=tmp_path) as spill:
            stats = scan_source(InMemoryEdgeSource(skewed_graph, 50))
            high = stats.degrees > stats.mean_degree
            src = InMemoryEdgeSource(skewed_graph, 50)
            for chunk in src:
                h2h = high[chunk.pairs[:, 0]] & high[chunk.pairs[:, 1]]
                spill.append(chunk.pairs[h2h], chunk.eids[h2h])
            assert len(spill) > 0
            for pairs, _ in spill.chunks(37):
                assert pairs.shape[0] <= 37


class TestBudget:
    def test_budget_selects_tau(self, skewed_graph):
        generous = run_job(
            make_job("HEP", skewed_graph, 4, memory_budget=10**9), skewed_graph
        )
        tight_budget = 60_000
        tight = run_job(
            make_job("HEP", skewed_graph, 4, memory_budget=tight_budget),
            skewed_graph,
        )
        assert tight.tau <= generous.tau
        assert tight.projected_memory_bytes <= tight_budget

    def test_budget_matches_in_memory_selection(self, skewed_graph):
        """Streaming tau selection must agree with core.tau.select_tau."""
        from repro.core import select_tau

        budget = 80_000
        tau, projected = select_tau(skewed_graph, budget, 4)
        result = run_job(
            make_job("HEP", skewed_graph, 4, memory_budget=budget), skewed_graph
        )
        assert result.tau == tau
        assert result.projected_memory_bytes == projected

    def test_impossible_budget_errors(self, skewed_graph):
        with pytest.raises(ConfigurationError):
            run_job(
                make_job("HEP", skewed_graph, 4, memory_budget=16),
                skewed_graph,
            )

    def test_explicit_tau_wins_over_budget(self, skewed_graph):
        result = run_job(
            make_job("HEP", skewed_graph, 4, tau=1.0, memory_budget=10**9),
            skewed_graph,
        )
        assert result.tau == 1.0


class TestBuffered:
    @pytest.mark.parametrize("buffer_size", [1, 16, 500])
    def test_buffered_completes_and_validates(self, skewed_graph, buffer_size):
        result = run_job(
            make_job(
                "HEP", skewed_graph, 4, tau=1.0, chunk_size=64,
                buffer_size=buffer_size,
            ),
            skewed_graph,
        )
        assert result.num_unassigned == 0
        assert_valid(result.to_assignment(skewed_graph))

    def test_buffer_size_one_equals_plain(self, skewed_graph):
        """A one-edge window can never reorder, so it matches exactly."""
        plain = run_job(
            make_job("HEP", skewed_graph, 4, tau=1.0, chunk_size=64),
            skewed_graph,
        )
        one = run_job(
            make_job(
                "HEP", skewed_graph, 4, tau=1.0, chunk_size=64, buffer_size=1
            ),
            skewed_graph,
        )
        assert np.array_equal(plain.parts, one.parts)

    def test_hep_partitioner_spill_and_buffer_params(self, skewed_graph, tmp_path):
        base = HepPartitioner(tau=1.0).partition(skewed_graph, 4)
        spilled = HepPartitioner(
            tau=1.0, spill_dir=str(tmp_path), chunk_size=91
        ).partition(skewed_graph, 4)
        assert np.array_equal(base.parts, spilled.parts)
        buffered = HepPartitioner(tau=1.0, buffer_size=32).partition(
            skewed_graph, 4
        )
        assert buffered.num_unassigned == 0

    def test_bad_buffer_config_rejected(self, skewed_graph):
        with pytest.raises(ConfigurationError):
            HepPartitioner(streaming="greedy", buffer_size=8)


class TestErrors:
    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(PartitioningError):
            run_job(make_job("HEP", path, 2, tau=1.0))

    def test_k_too_small(self, skewed_graph):
        with pytest.raises(ConfigurationError):
            run_job(make_job("HEP", skewed_graph, 1, tau=1.0), skewed_graph)

    def test_bad_tau(self):
        with pytest.raises(ConfigurationError):
            run_job(make_job("HEP", "OK", 2, tau=-1.0))
