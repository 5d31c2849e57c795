"""Tests for HEP jobs: hybrid assignment, informed streaming, the tau
knob, and the paper's headline quality relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import job
from repro.errors import ConfigurationError
from repro.experiments.common import partition_graph
from repro.graph import Graph
from repro.graph.generators import chung_lu, community_web, erdos_renyi
from repro.metrics import assert_valid, replication_factor
from repro.partition.ne import NePartitioner
from repro.runtime import make_job, run_job


@pytest.fixture(scope="module")
def social_graph() -> Graph:
    return chung_lu(700, mean_degree=12, exponent=2.2, seed=21, name="soc")


@pytest.fixture(scope="module")
def web_graph() -> Graph:
    return community_web(10, 70, intra_mean_degree=9, inter_fraction=0.02, seed=22)


class TestHepBasics:
    @pytest.mark.parametrize("tau", [1.0, 10.0, 100.0])
    def test_complete_valid_assignment(self, social_graph, tau):
        a = job("HEP", social_graph, 4, tau=tau)
        assert a.num_unassigned == 0
        assert_valid(a, alpha=1.5)

    def test_name_encodes_tau(self, social_graph):
        """A HEP row is named by the tau its job ran (plain HEP: 10)."""
        for name, row in (("HEP-10", "HEP-10"), ("hep-1.5", "HEP-1.5"),
                          ("HEP-inf", "HEP-inf"), ("HEP", "HEP-10")):
            assert partition_graph(name, social_graph, 4)[0] == row

    def test_rejects_bad_tau(self, social_graph):
        with pytest.raises(ConfigurationError):
            job("HEP", social_graph, 4, tau=0)

    def test_deterministic(self, social_graph):
        a = job("HEP", social_graph, 4, tau=2.0)
        b = job("HEP", social_graph, 4, tau=2.0)
        assert np.array_equal(a.parts, b.parts)

    def test_breakdown_populated(self, social_graph):
        b = run_job(
            make_job("HEP", social_graph, 4, tau=1.0), social_graph
        ).breakdown
        assert b is not None
        assert b.num_edges == social_graph.num_edges
        assert b.num_h2h_edges + b.num_inmemory_edges == b.num_edges
        assert 0 < b.h2h_fraction < 1
        assert b.rest_fraction == pytest.approx(1 - b.h2h_fraction)

    def test_tau_inf_equals_pure_ne_plus_plus(self, social_graph):
        from repro.core import NePlusPlusPartitioner

        a = job("HEP", social_graph, 4, tau=float("inf"))
        b = NePlusPlusPartitioner().partition(social_graph, 4)
        assert np.array_equal(a.parts, b.parts)


class TestTauKnob:
    def test_h2h_fraction_grows_as_tau_drops(self, social_graph):
        fractions = []
        for tau in (10.0, 2.0, 1.0, 0.5):
            spec = make_job("HEP", social_graph, 4, tau=tau)
            breakdown = run_job(spec, social_graph).breakdown
            fractions.append(breakdown.h2h_fraction)
        assert fractions == sorted(fractions)

    def test_quality_degrades_gracefully(self, social_graph):
        """The paper's Figure 8 pattern:
        RF(HEP-100) <= RF(HEP-1), and both beat pure streaming HDRF."""
        k = 8
        rf = {
            tau: replication_factor(job("HEP", social_graph, k, tau=tau))
            for tau in (100.0, 1.0)
        }
        rf_hdrf = replication_factor(job("HDRF", social_graph, k))
        assert rf[100.0] <= rf[1.0] * 1.05
        assert rf[1.0] <= rf_hdrf

    def test_memory_model_shrinks_with_tau(self, social_graph):
        from repro.core import hep_memory_bytes

        sizes = [
            hep_memory_bytes(social_graph, tau, 8) for tau in (100.0, 10.0, 1.0)
        ]
        assert sizes == sorted(sizes, reverse=True)


class TestInformedStreaming:
    def test_informed_beats_uninformed_on_h2h(self, social_graph):
        """HEP's phase 2 uses replicas from phase 1.  An uninformed HDRF
        over the same graph should not beat full HEP at low tau."""
        k = 8
        rf_hep = replication_factor(job("HEP", social_graph, k, tau=0.5))
        rf_hdrf = replication_factor(job("HDRF", social_graph, k))
        assert rf_hep <= rf_hdrf * 1.02


class TestHeadlineClaims:
    """The paper's abstract in test form: on suitable graphs HEP
    outperforms streaming on quality while approaching in-memory NE."""

    def test_hep10_close_to_ne_on_web(self, web_graph):
        k = 8
        rf_hep = replication_factor(job("HEP", web_graph, k, tau=10.0))
        rf_ne = replication_factor(NePartitioner().partition(web_graph, k))
        assert rf_hep <= rf_ne * 1.35

    def test_hep_beats_hdrf_on_web(self, web_graph):
        k = 8
        rf_hep = replication_factor(job("HEP", web_graph, k, tau=10.0))
        rf_hdrf = replication_factor(job("HDRF", web_graph, k))
        assert rf_hep < rf_hdrf

    def test_balance_perfect_at_default_alpha(self, social_graph):
        for tau in (1.0, 10.0):
            a = job("HEP", social_graph, 4, tau=tau)
            sizes = a.partition_sizes()
            cap = -(-social_graph.num_edges // 4)
            assert sizes.max() <= cap * 1.25


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(8, 40),
    m=st.integers(10, 120),
    k=st.sampled_from([2, 4, 8]),
    tau=st.sampled_from([0.5, 1.0, 3.0, 25.0]),
    seed=st.integers(0, 4),
)
def test_hep_property_random_graphs(n, m, k, tau, seed):
    """Property: HEP always yields a complete, in-range, balanced
    assignment, whatever the split between phases."""
    g = erdos_renyi(n, m, seed=seed)
    if g.num_edges < k:
        return
    a = job("HEP", g, k, tau=tau)
    assert a.num_unassigned == 0
    assert a.parts.min() >= 0 and a.parts.max() < k
    assert a.partition_sizes().sum() == g.num_edges
    assert_valid(a, alpha=3.0)
