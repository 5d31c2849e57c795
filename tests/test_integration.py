"""End-to-end integration tests across module boundaries.

These exercise the full pipelines a user runs: file -> graph -> partition
-> metrics -> processing/paging, and the cross-module consistency the
experiment harness depends on.
"""

import numpy as np
import pytest

from references import job
from repro import (
    assert_valid,
    datasets,
    hep_memory_bytes,
    read_binary_edgelist,
    replication_factor,
    select_tau,
    write_binary_edgelist,
)
from repro.core import run_ne_plus_plus
from repro.core.memory_model import pruned_column_entries
from repro.errors import ConfigurationError
from repro.experiments.common import partition_graph, run_partitioner
from repro.graph import build_pruned_csr
from repro.graph.generators import chung_lu
from repro.memsim import PAGE_BYTES, run_paged_ne_plus_plus
from repro.metrics import edge_balance, vertex_balance
from repro.partition import PartitionAssignment
from repro.processing import VertexCutEngine, pagerank


class TestFileToPartitionPipeline:
    def test_binary_roundtrip_then_hep(self, tmp_path):
        """The paper's exact input path: binary 32-bit edge list -> HEP."""
        original = chung_lu(300, mean_degree=8, exponent=2.3, seed=91, name="g")
        path = tmp_path / "graph.bin"
        write_binary_edgelist(original, path)
        graph = read_binary_edgelist(path, num_vertices=300, name="g")
        assignment = job("HEP", graph, 4, tau=2.0)
        assert_valid(assignment, alpha=1.0)
        # Same input file -> same partitioning (full determinism).
        again = job(
            "HEP", read_binary_edgelist(path, num_vertices=300), 4, tau=2.0
        )
        assert np.array_equal(assignment.parts, again.parts)

    def test_budget_to_partition_pipeline(self):
        """select_tau -> a HEP job honors the projected footprint."""
        graph = datasets.load("LJ")
        k = 16
        generous = hep_memory_bytes(graph, 1e9, k)
        budget = int(generous * 0.7)
        tau, projected = select_tau(graph, budget, k)
        assert projected <= budget
        assignment = job("HEP", graph, k, tau=tau)
        assert_valid(assignment, alpha=1.0)
        # The projection equals the model for the chosen tau.
        assert projected == hep_memory_bytes(graph, tau, k)


class TestCrossModuleConsistency:
    @pytest.fixture(scope="class")
    def graph(self):
        return chung_lu(400, mean_degree=10, exponent=2.2, seed=92, name="x")

    def test_phase_one_loads_match_assignment_sizes(self, graph):
        result = run_ne_plus_plus(graph, 8, tau=1.0)
        assignment = PartitionAssignment(graph, 8, result.parts)
        sizes = assignment.partition_sizes()
        assert np.array_equal(sizes, result.loads)

    def test_memory_model_matches_built_csr(self, graph):
        for tau in (0.5, 2.0, 50.0):
            csr = build_pruned_csr(graph, tau)
            assert pruned_column_entries(graph, tau) == csr.col.size

    def test_engine_rf_equals_metric_rf(self, graph):
        assignment = job("HEP", graph, 4, tau=1.0)
        engine = VertexCutEngine(assignment)
        assert engine.replication_factor() == pytest.approx(
            replication_factor(assignment)
        )

    def test_report_row_matches_direct_metrics(self, graph):
        report = run_partitioner("HEP-10", graph, 4)
        assignment = job("HEP", graph, 4, tau=10.0)
        assert report.replication_factor == pytest.approx(
            replication_factor(assignment)
        )
        assert report.alpha == pytest.approx(edge_balance(assignment))
        assert report.vertex_balance == pytest.approx(vertex_balance(assignment))

    def test_partition_graph_names_round_trip(self, graph):
        for name in ("HEP-100", "HEP-1", "HDRF", "DBH", "NE", "NE++", "SNE"):
            row, _ = partition_graph(name, graph, 4)
            # Table name must reproduce so Figure 8 rows stay addressable.
            assert row.upper().startswith(name.split("-")[0].upper())

    def test_partition_graph_unknown(self, graph):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            partition_graph("NOPE", graph, 4)
        with pytest.raises(ConfigurationError, match="HEP-<tau> name"):
            partition_graph("HEP-abc", graph, 4)


class TestFullEvaluationSlice:
    """A miniature of the whole evaluation on one small graph: every
    partitioner family, one processing job, one paging run."""

    @pytest.fixture(scope="class")
    def graph(self):
        return chung_lu(250, mean_degree=8, exponent=2.3, seed=93, name="mini")

    @pytest.mark.parametrize(
        "name",
        ["HEP-10", "HEP-1", "HEP", "HDRF", "Greedy", "DBH", "Grid",
         "Restreaming", "ADWISE", "Random", "NE", "NE++", "SNE", "DNE",
         "METIS"],
    )
    def test_partitioner_to_processing(self, graph, name):
        report = run_partitioner(name, graph, 4)
        assert report.memory_bytes > 0
        _, assignment = partition_graph(name, graph, 4)
        assert assignment.num_unassigned == 0
        engine = VertexCutEngine(assignment)
        job = pagerank(engine, iterations=3)
        assert job.sim_seconds > 0
        assert job.total_messages >= 0

    def test_paging_slice(self, graph):
        result = run_paged_ne_plus_plus(graph, 4, memory_limit_bytes=1 << 22)
        assert result.page_faults >= result.working_set_pages * 0  # sane
        tight = run_paged_ne_plus_plus(
            graph, 4, memory_limit_bytes=max(PAGE_BYTES * 4, PAGE_BYTES)
        )
        assert tight.page_faults >= result.page_faults
