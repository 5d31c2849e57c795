"""Smoke and contract tests for the experiment harness.

The full sweeps run in the benchmark suite; here each experiment module
is exercised on reduced inputs so its code paths, row schemas and note
logic stay covered by the fast test suite.
"""

import pytest

from repro.core import hep_memory_bytes, ne_plus_plus_memory_bytes
from repro.experiments import (
    REGISTRY,
    figure1,
    figure2,
    figure5,
    figure7,
    figure8,
    figure9,
    stream_order,
    table2,
    table4,
    table5,
    table6,
)
from repro.experiments.common import (
    ExperimentResult,
    dataset_list,
    full_mode,
    k_values,
    run_partitioner,
)
from repro.graph.generators import chung_lu
from repro.metrics import format_table


class TestCommon:
    def test_registry_complete(self):
        expected = {
            "figure1", "figure2", "figure5", "figure7", "figure8", "figure9",
            "table1", "table2", "table3", "table4", "table5", "table6",
            "ablations", "extensions",
        }
        assert expected <= set(REGISTRY)

    def test_full_mode_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        assert not full_mode()
        assert k_values() == [4, 32]
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        assert full_mode()
        assert k_values() == [4, 32, 128, 256]

    def test_dataset_list_switches(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
        assert dataset_list(("A",), ("A", "B")) == ["A"]
        monkeypatch.setenv("REPRO_BENCH_FULL", "1")
        assert dataset_list(("A",), ("A", "B")) == ["A", "B"]

    def test_run_partitioner_hep_variants(self):
        """A HEP row's memory is modeled at the tau its job ran."""
        g = chung_lu(120, mean_degree=6, exponent=2.3, seed=1, name="t")
        for name, tau in (("HEP-10", 10.0), ("hep-1.5", 1.5), ("HEP", 10.0)):
            report = run_partitioner(name, g, 4)
            assert report.memory_bytes == hep_memory_bytes(g, tau, 4)
        report = run_partitioner("HEP-inf", g, 4)
        assert report.memory_bytes == ne_plus_plus_memory_bytes(g, 4)

    def test_run_partitioner_report(self):
        g = chung_lu(120, mean_degree=6, exponent=2.3, seed=1, name="t")
        report = run_partitioner("DBH", g, 4)
        row = report.row()
        assert row["partitioner"] == "DBH"
        assert row["k"] == 4
        assert float(row["RF"]) >= 1.0
        assert row["mem_MiB"] is not None

    def test_experiment_result_format(self):
        result = ExperimentResult("x", "Title", [{"a": 1}], "shape", ["n1"])
        text = result.format()
        assert "[x] Title" in text
        assert "paper shape: shape" in text
        assert "note: n1" in text


class TestReducedRuns:
    """Each parameterizable experiment on a minimal workload."""

    def test_figure2_reduced(self):
        result = figure2.run(graphs=("LJ",), k=8)
        assert result.rows
        assert {r["partitioner"] for r in result.rows} == {"HDRF", "NE"}

    def test_figure8_reduced(self):
        result = figure8.run(
            graphs=("LJ",), partitioners=("HEP-10", "HDRF", "DBH", "NE", "HEP-100", "HEP-1"),
            ks=(4,),
        )
        assert len(result.rows) == 6
        assert any("RF chain" in n for n in result.notes)

    def test_figure9_reduced(self):
        result = figure9.run(graphs=("LJ",), taus=(10.0, 1.0), k=8)
        assert len(result.rows) == 2
        for row in result.rows:
            assert 0 <= float(row["H2H_share"]) <= 1

    def test_table4_reduced(self):
        result = table4.run(
            graphs=("LJ",), partitioners=("HEP-10", "DBH"), k=8,
            pagerank_iterations=5, bfs_seeds=2,
        )
        assert len(result.rows) == 2
        for row in result.rows:
            assert float(row["PageRank_s"]) > 0
            assert float(row["CC_s"]) > 0

    def test_table5_reduced(self):
        result = table5.run(graphs=("LJ",), taus=(10.0, 1.0), k=8)
        assert len(result.rows) == 2
        assert "LJ" in result.rows[0]

    def test_format_table_round_trip(self):
        rows = [{"graph": "LJ", "RF": 1.5}]
        assert "LJ" in format_table(rows)

    def test_figure1_reduced(self):
        result = figure1.run(graphs=("LJ",), k=2)
        assert len(result.rows) == 2  # star example + LJ
        star_row = result.rows[0]
        assert int(star_row["vertex_cut(edge part.)"]) < int(
            star_row["edge_cut(vertex part.)"]
        )

    def test_figure5_reduced(self):
        result = figure5.run(graphs=("LJ",), k=8)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert float(row["norm_deg_S_minus_C"]) > float(row["norm_deg_C"])

    def test_figure7_reduced(self):
        result = figure7.run(graphs=("LJ",), k=8)
        assert 0 < float(result.rows[0]["removed_fraction"]) < 1

    def test_table2_reduced(self):
        result = table2.run(graphs=("LJ",), k=8)
        assert float(result.rows[0]["ratio"]) < 0.5

    def test_table6_reduced(self):
        result = table6.run(graph_name="LJ", k=8)
        paged = [r for r in result.rows if r["runtime_s"] != "-"]
        faults = [int(r["hard_faults"]) for r in paged]
        assert faults == sorted(faults)

    def test_stream_order_reduced(self):
        result = stream_order.run(graph_name="LJ", k=8)
        assert len(result.rows) == 5  # five orderings
        for row in result.rows:
            assert float(row["HEP-1"]) >= 1.0
