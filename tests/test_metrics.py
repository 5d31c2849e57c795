"""Tests for replication/balance metrics, validity checks and reports."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graph import Graph
from repro.graph.generators import star
from repro.metrics import (
    PartitionReport,
    assert_valid,
    edge_balance,
    format_table,
    is_valid,
    load_distribution,
    replicas_per_vertex,
    replication_factor,
    rf_by_degree_bucket,
    summarize,
    vertex_balance,
)
from repro.partition import PartitionAssignment


def square() -> Graph:
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], num_vertices=4)


class TestReplication:
    def test_figure1_star_example(self):
        """The paper's Figure 1: a 7-vertex star split into two partitions
        has cut size 1 — only the hub is replicated, RF = 8/7."""
        g = star(7)
        parts = np.array([0, 0, 0, 1, 1, 1], dtype=np.int32)
        a = PartitionAssignment(g, 2, parts)
        assert replicas_per_vertex(a).tolist() == [2, 1, 1, 1, 1, 1, 1]
        assert replication_factor(a) == pytest.approx(8 / 7)

    def test_single_partition_rf_one(self):
        g = square()
        a = PartitionAssignment(g, 1, np.zeros(4, dtype=np.int32))
        assert replication_factor(a) == 1.0

    def test_isolated_vertices_excluded(self):
        g = Graph.from_edges([(0, 1)], num_vertices=10)
        a = PartitionAssignment(g, 2, np.array([0]))
        assert replication_factor(a) == 1.0

    def test_empty_graph(self):
        g = Graph.from_edges(np.empty((0, 2)), num_vertices=3)
        a = PartitionAssignment(g, 2, np.empty(0, dtype=np.int32))
        assert replication_factor(a) == 0.0

    def test_rf_by_degree_bucket(self):
        g = star(50)  # hub degree 49 (bucket 1), leaves degree 1 (bucket 0)
        parts = np.arange(49, dtype=np.int32) % 4
        a = PartitionAssignment(g, 4, parts)
        fractions, mean_rf, buckets = rf_by_degree_bucket(a)
        assert buckets.tolist() == [0, 1]
        assert fractions[0] == pytest.approx(49 / 50)
        assert mean_rf[0] == 1.0
        assert mean_rf[1] == 4.0


class TestBalance:
    def test_perfect_balance(self):
        a = PartitionAssignment(square(), 2, np.array([0, 0, 1, 1]))
        assert edge_balance(a) == 1.0

    def test_imbalance(self):
        a = PartitionAssignment(square(), 2, np.array([0, 0, 0, 1]))
        assert edge_balance(a) == pytest.approx(1.5)

    def test_vertex_balance_zero_when_equal(self):
        a = PartitionAssignment(square(), 2, np.array([0, 0, 1, 1]))
        # Each partition covers 3 vertices -> std 0.
        assert vertex_balance(a) == 0.0

    def test_load_distribution(self):
        a = PartitionAssignment(square(), 2, np.array([0, 0, 0, 1]))
        dist = load_distribution(a)
        assert dist["min"] == 1 and dist["max"] == 3
        assert dist["alpha"] == pytest.approx(1.5)


class TestValidity:
    def test_valid_assignment_passes(self):
        a = PartitionAssignment(square(), 2, np.array([0, 1, 0, 1]))
        assert_valid(a, alpha=1.0)
        assert is_valid(a, alpha=1.0)

    def test_unassigned_detected(self):
        a = PartitionAssignment(square(), 2, np.array([0, 1, 0, -1]))
        with pytest.raises(ValidationError, match="unassigned"):
            assert_valid(a)
        assert_valid(a, require_complete=False)  # partial check OK

    def test_out_of_range_detected(self):
        a = PartitionAssignment(square(), 2, np.array([0, 1, 0, 2]))
        with pytest.raises(ValidationError, match="out of range"):
            assert_valid(a)

    def test_capacity_violation_detected(self):
        a = PartitionAssignment(square(), 2, np.array([0, 0, 0, 1]))
        with pytest.raises(ValidationError, match="exceeds capacity"):
            assert_valid(a, alpha=1.0)
        assert_valid(a, alpha=1.5)  # relaxed bound passes


class TestReport:
    def test_summarize(self):
        g = square()
        g.name = "sq"
        a = PartitionAssignment(g, 2, np.array([0, 0, 1, 1]))
        report = summarize(a, "X", 0.5)
        assert report == PartitionReport(
            partitioner="X",
            graph="sq",
            k=2,
            replication_factor=report.replication_factor,
            alpha=1.0,
            vertex_balance=0.0,
            runtime_s=0.5,
        )
        assert report.replication_factor == pytest.approx(6 / 4)

    def test_row_without_memory(self):
        r = PartitionReport("X", "g", 2, 1.5, 1.0, 0.1, 2.0)
        assert "mem_MiB" not in r.row()

    def test_row_with_memory(self):
        r = PartitionReport("X", "g", 2, 1.5, 1.0, 0.1, 2.0, memory_bytes=2**20)
        assert r.row()["mem_MiB"] == 1.0

    def test_format_table(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z", "c": 3}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "c" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])
