"""Streaming baselines out of core: streamed ≡ in-memory per baseline.

The in-memory side is the test-local kernel reference
(:mod:`references`): one kernel call over the whole edge array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from repro.errors import ConfigurationError, PartitioningError
from repro.graph import generators, write_binary_edgelist, write_text_edgelist
from repro.metrics import assert_valid
from repro.runtime import create_algorithm, make_job, run_job
from strategies import graphs

#: (algo name, in-memory reference ``(graph, k) -> assignment``, algo_params)
_CASES = [
    ("HDRF", lambda g, k: references.hdrf(g, k), {}),
    ("Greedy", lambda g, k: references.greedy(g, k), {}),
    ("DBH", lambda g, k: references.dbh(g, k), {}),
    ("Grid", lambda g, k: references.grid(g, k), {}),
    ("Restreaming", lambda g, k: references.restreaming(g, k, passes=2),
     {"passes": 2}),
]


@pytest.fixture(scope="module")
def skewed_graph():
    return generators.chung_lu(500, mean_degree=7, exponent=2.1, seed=23)


class TestEquivalence:
    """Acceptance: every baseline is bit-identical streamed vs in-memory."""

    @pytest.mark.parametrize("name,reference,kwargs", _CASES)
    @settings(max_examples=15, deadline=None)
    @given(
        graph=graphs(min_edges=2, max_edges=60, max_vertices=16),
        chunk_size=st.integers(min_value=1, max_value=64),
        k=st.integers(min_value=2, max_value=4),
    )
    def test_property_identical_parts(
        self, graph, chunk_size, k, name, reference, kwargs
    ):
        expected = reference(graph, k)
        spec = make_job(
            name, graph, k, chunk_size=chunk_size, algo_params=kwargs
        )
        result = run_job(spec, graph)
        assert np.array_equal(result.parts, expected.parts)

    @pytest.mark.parametrize("name,reference,kwargs", _CASES)
    def test_binary_file_identical(
        self, skewed_graph, tmp_path, name, reference, kwargs
    ):
        path = tmp_path / "g.bin"
        write_binary_edgelist(skewed_graph, path)
        expected = reference(skewed_graph, 5)
        result = run_job(
            make_job(name, path, 5, chunk_size=173, algo_params=kwargs)
        )
        assert np.array_equal(result.parts, expected.parts)
        assert result.replication_factor == pytest.approx(
            expected.replication_factor()
        )
        assert result.edge_balance == pytest.approx(expected.balance())

    def test_text_file_identical(self, skewed_graph, tmp_path):
        path = tmp_path / "g.txt"
        write_text_edgelist(skewed_graph, path)
        expected = references.hdrf(skewed_graph, 4)
        result = run_job(make_job("HDRF", path, 4, chunk_size=64))
        assert np.array_equal(result.parts, expected.parts)


class TestResult:
    def test_result_fields_and_validity(self, skewed_graph):
        result = run_job(
            make_job("Greedy", skewed_graph, 4, chunk_size=50), skewed_graph
        )
        assert result.algorithm == "Greedy"
        assert result.num_unassigned == 0
        assert result.num_edges == skewed_graph.num_edges
        assert result.loads.sum() == skewed_graph.num_edges
        assert_valid(result.to_assignment(skewed_graph))

    def test_restreaming_reports_passes(self, skewed_graph):
        spec = make_job(
            "Restreaming", skewed_graph, 3, chunk_size=64,
            algo_params={"passes": 2},
        )
        result = run_job(spec, skewed_graph)
        assert result.passes == 2
        assert result.algorithm == "ReHDRF-2"


class TestConfiguration:
    def test_case_insensitive_lookup(self):
        for spelled in ("hdrf", "HDRF", "Hdrf"):
            assert create_algorithm(spelled).name == "HDRF"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            create_algorithm("NoSuchAlgorithm")

    def test_k_too_small(self, skewed_graph):
        with pytest.raises(ConfigurationError):
            run_job(make_job("HDRF", skewed_graph, 1), skewed_graph)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(PartitioningError):
            run_job(make_job("HDRF", path, 2))

    def test_bad_passes(self):
        with pytest.raises(ConfigurationError):
            create_algorithm("Restreaming", passes=0)
