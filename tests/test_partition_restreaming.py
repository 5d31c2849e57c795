"""Tests for the restreaming (multi-pass HDRF) extension, run as jobs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import job
from repro.errors import ConfigurationError
from repro.graph.generators import chung_lu, erdos_renyi
from repro.metrics import assert_valid, replication_factor
from repro.runtime import create_algorithm


def restream(graph, k, passes):
    """The ``Restreaming`` job with ``passes`` sweeps, as an assignment."""
    return job("Restreaming", graph, k, algo_params={"passes": passes})


@pytest.fixture(scope="module")
def graph():
    return chung_lu(500, mean_degree=10, exponent=2.2, seed=61)


class TestRestreaming:
    def test_valid_assignment(self, graph):
        a = restream(graph, 4, passes=2)
        assert_valid(a, alpha=1.0)

    def test_single_pass_close_to_hdrf(self, graph):
        """One pass with exact degrees ~ standalone exact-degree HDRF."""
        rf_restream = replication_factor(restream(graph, 8, passes=1))
        rf_hdrf = replication_factor(
            job("HDRF", graph, 8, algo_params={"exact_degrees": True})
        )
        assert rf_restream == pytest.approx(rf_hdrf, rel=0.1)

    def test_more_passes_not_worse(self, graph):
        """Restreaming's whole point: later passes refine early mistakes."""
        k = 8
        rf = {
            passes: replication_factor(restream(graph, k, passes))
            for passes in (1, 3)
        }
        assert rf[3] <= rf[1] * 1.02

    def test_beats_single_pass_hdrf(self, graph):
        k = 8
        rf_multi = replication_factor(restream(graph, k, passes=3))
        rf_single = replication_factor(job("HDRF", graph, k))
        assert rf_multi < rf_single

    def test_rejects_zero_passes(self, graph):
        with pytest.raises(ConfigurationError):
            restream(graph, 4, passes=0)

    def test_name_encodes_passes(self):
        assert create_algorithm("Restreaming", passes=4).name == "ReHDRF-4"

    def test_deterministic(self, graph):
        a = restream(graph, 4, passes=2)
        b = restream(graph, 4, passes=2)
        assert np.array_equal(a.parts, b.parts)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(8, 40),
    m=st.integers(10, 100),
    k=st.sampled_from([2, 4]),
    passes=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 3),
)
def test_restreaming_property(n, m, k, passes, seed):
    g = erdos_renyi(n, m, seed=seed)
    if g.num_edges < k:
        return
    a = restream(g, k, passes)
    assert_valid(a, alpha=1.0)
