"""Tests for tau selection (Section 4.4) and the memory models (4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory_model import (
    dne_memory_bytes,
    hep_memory_bytes,
    memory_model_for,
    metis_memory_bytes,
    ne_memory_bytes,
    ne_plus_plus_memory_bytes,
    pruned_column_entries,
    sne_memory_bytes,
    stateless_memory_bytes,
    streaming_memory_bytes,
)
from repro.core.tau import (
    DEFAULT_TAU_GRID,
    h2h_edge_fraction_curve,
    precompute_profile,
    select_tau,
)
from repro.errors import ConfigurationError
from repro.graph import CsrGraph, Graph, build_pruned_csr
from repro.graph.generators import chung_lu, erdos_renyi


@pytest.fixture(scope="module")
def graph() -> Graph:
    return chung_lu(800, mean_degree=12, exponent=2.2, seed=7, name="g")


class TestPrunedColumnEntries:
    def test_matches_actual_csr(self, graph):
        """The degree-only formula must equal the built CSR's column size."""
        for tau in (0.5, 1.0, 2.0, 10.0):
            csr = build_pruned_csr(graph, tau)
            assert pruned_column_entries(graph, tau) == csr.col.size

    def test_unpruned_is_2m(self, graph):
        assert pruned_column_entries(graph, 1e9) == 2 * graph.num_edges

    def test_monotone_in_tau(self, graph):
        sizes = [pruned_column_entries(graph, t) for t in (0.5, 1.0, 2.0, 5.0, 100.0)]
        assert sizes == sorted(sizes)


class TestHepMemoryModel:
    def test_paper_formula_components(self, graph):
        """Total = column + 6|V|b + |V|(k+1)/8 (+1 rounding guard)."""
        k, b = 8, 4
        expected = (
            pruned_column_entries(graph, 2.0) * b
            + 6 * graph.num_vertices * b
            + graph.num_vertices * (k + 1) // 8
            + 1
        )
        assert hep_memory_bytes(graph, 2.0, k, id_bytes=b) == expected

    def test_monotone_in_tau(self, graph):
        ms = [hep_memory_bytes(graph, t, 8) for t in (0.5, 1.0, 10.0, 100.0)]
        assert ms == sorted(ms)

    def test_k_increases_bitset_cost(self, graph):
        assert hep_memory_bytes(graph, 1.0, 256) > hep_memory_bytes(graph, 1.0, 4)

    def test_rejects_bad_k(self, graph):
        with pytest.raises(ConfigurationError):
            hep_memory_bytes(graph, 1.0, 0)


class TestComparativeModels:
    def test_paper_memory_ordering(self, graph):
        """Figure 8(c,f,i,l,o)'s ordering: streaming < HEP-1 < HEP-100 <=
        NE++ < NE < METIS/DNE."""
        k = 32
        stream = streaming_memory_bytes(graph, k)
        hep1 = hep_memory_bytes(graph, 1.0, k)
        hep100 = hep_memory_bytes(graph, 100.0, k)
        nepp = ne_plus_plus_memory_bytes(graph, k)
        ne = ne_memory_bytes(graph, k)
        assert stream < hep1 < hep100 <= nepp < ne
        assert ne < dne_memory_bytes(graph, k)
        assert ne < metis_memory_bytes(graph, k)

    def test_stateless_cheapest(self, graph):
        k = 32
        assert stateless_memory_bytes(graph, k) < streaming_memory_bytes(graph, k)

    def test_sne_below_ne(self, graph):
        assert sne_memory_bytes(graph, 32) < ne_memory_bytes(graph, 32)

    def test_dispatcher_names(self, graph):
        for name in ("HEP-10", "HEP-1", "NE", "NE++", "SNE", "DNE", "METIS",
                     "HDRF", "Greedy", "ADWISE", "DBH", "Grid", "Random",
                     "Restreaming"):
            assert memory_model_for(name, graph, 8) > 0

    def test_dispatcher_hep_inf(self, graph):
        assert memory_model_for("HEP-inf", graph, 8) == ne_plus_plus_memory_bytes(
            graph, 8
        )

    def test_dispatcher_unknown(self, graph):
        for name in ("FOO", "HEPX", "HEP-abc"):
            with pytest.raises(ConfigurationError):
                memory_model_for(name, graph, 8)


class TestTauSelection:
    def test_profile_has_all_taus(self, graph):
        profile = precompute_profile(graph, 8)
        assert profile.taus == DEFAULT_TAU_GRID
        assert len(profile.bytes_per_tau) == len(DEFAULT_TAU_GRID)
        assert profile.precompute_seconds >= 0
        assert len(profile.rows()) == len(DEFAULT_TAU_GRID)

    def test_select_max_tau_under_budget(self, graph):
        # A budget between HEP-1 and HEP-100 footprints must select an
        # intermediate tau, and the projection must respect the budget.
        lo = hep_memory_bytes(graph, min(DEFAULT_TAU_GRID), 8)
        hi = hep_memory_bytes(graph, max(DEFAULT_TAU_GRID), 8)
        budget = (lo + hi) // 2
        tau, projected = select_tau(graph, budget, 8)
        assert projected <= budget
        # Maximality: the next-larger grid tau must exceed the budget.
        larger = [t for t in DEFAULT_TAU_GRID if t > tau]
        if larger:
            assert hep_memory_bytes(graph, min(larger), 8) > budget

    def test_generous_budget_picks_largest_tau(self, graph):
        tau, _ = select_tau(graph, 10**12, 8)
        assert tau == max(DEFAULT_TAU_GRID)

    def test_impossible_budget_raises(self, graph):
        with pytest.raises(ConfigurationError):
            select_tau(graph, 10, 8)

    def test_empty_grid_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            precompute_profile(graph, 8, taus=())

    def test_h2h_fraction_curve_monotone(self, graph):
        curve = h2h_edge_fraction_curve(graph)
        fractions = [f for _, f in curve]
        assert fractions == sorted(fractions, reverse=True)
        assert all(0.0 <= f <= 1.0 for f in fractions)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(10, 80),
    m=st.integers(10, 200),
    tau=st.sampled_from([0.5, 1.0, 2.0, 5.0]),
    seed=st.integers(0, 5),
)
def test_column_formula_matches_csr_property(n, m, tau, seed):
    g = erdos_renyi(n, m, seed=seed)
    csr = build_pruned_csr(g, tau)
    assert pruned_column_entries(g, tau) == csr.col.size


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(10, 60),
    m=st.integers(10, 150),
    seed=st.integers(0, 5),
    budget_frac=st.floats(0.2, 1.0),
)
def test_select_tau_respects_budget_property(n, m, seed, budget_frac):
    g = erdos_renyi(n, m, seed=seed)
    hi = hep_memory_bytes(g, max(DEFAULT_TAU_GRID), 8)
    lo = hep_memory_bytes(g, min(DEFAULT_TAU_GRID), 8)
    budget = int(lo + (hi - lo) * budget_frac)
    try:
        tau, projected = select_tau(g, budget, 8)
    except ConfigurationError:
        assert budget < lo
        return
    assert projected <= budget
    assert tau in DEFAULT_TAU_GRID
