"""Tests for the BSP-parallel streaming phase of HEP, on the in-process
oracle (:func:`references.parallel_hep`) the multi-worker jobs equal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import job, parallel_hep
from repro.errors import ConfigurationError
from repro.graph.generators import chung_lu, erdos_renyi
from repro.metrics import assert_valid, replication_factor
from repro.parallel import BspStreamReport, bsp_hdrf_stream
from repro.partition import StreamingState


@pytest.fixture(scope="module")
def graph():
    return chung_lu(600, mean_degree=12, exponent=2.1, seed=81, name="g")


class TestParallelHep:
    def test_valid_assignment(self, graph):
        a, _ = parallel_hep(graph, 8, tau=1.0, workers=4, batch=8)
        assert a.num_unassigned == 0
        assert_valid(a, alpha=1.3)

    def test_single_worker_batch_one_equals_sequential(self, graph):
        """workers=1, batch=1 must reproduce sequential HEP bit-for-bit."""
        seq = job("HEP", graph, 8, tau=1.0)
        par, _ = parallel_hep(graph, 8, tau=1.0, workers=1, batch=1)
        assert np.array_equal(seq.parts, par.parts)

    def test_deterministic(self, graph):
        a, _ = parallel_hep(graph, 8, tau=1.0, workers=4, batch=8)
        b, _ = parallel_hep(graph, 8, tau=1.0, workers=4, batch=8)
        assert np.array_equal(a.parts, b.parts)

    def test_staleness_costs_quality_at_most_modestly(self, graph):
        """More parallelism (bigger stale batches) must not catastrophically
        degrade RF — the BSP merge keeps state nearly fresh."""
        k = 8
        rf_seq = replication_factor(job("HEP", graph, k, tau=0.5))
        par, _ = parallel_hep(graph, k, tau=0.5, workers=8, batch=16)
        assert replication_factor(par) <= rf_seq * 1.25

    def test_report_speedup(self, graph):
        _, report = parallel_hep(graph, 8, tau=0.5, workers=4, batch=8)
        assert report.edges_streamed > 0
        # With 4 workers x batch 8, each superstep covers up to 32 edges.
        assert report.modeled_speedup > 1.5
        assert report.modeled_speedup <= 4 * 8

    def test_no_h2h_edges_trivial_report(self, graph):
        a, report = parallel_hep(graph, 4, tau=1e9, workers=4, batch=8)
        assert a.num_unassigned == 0
        assert report.supersteps == 0
        assert report.modeled_speedup == 1.0

    def test_validation(self, graph):
        with pytest.raises(ConfigurationError):
            job("HEP", graph, 8, tau=0)
        state = StreamingState(4, 2, 10)
        parts = np.full(1, -1, dtype=np.int32)
        for workers, batch in ((0, 8), (2, 0)):
            with pytest.raises(ConfigurationError):
                bsp_hdrf_stream(
                    state, np.array([[0, 1]]), np.arange(1), parts,
                    workers, batch=batch,
                )


class TestReport:
    def test_modeled_speedup_formula(self):
        report = BspStreamReport(workers=4, batch=8, supersteps=10, edges_streamed=320)
        assert report.modeled_speedup == pytest.approx(4.0)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(10, 40),
    m=st.integers(12, 100),
    workers=st.sampled_from([1, 2, 4]),
    batch=st.sampled_from([1, 4, 16]),
    seed=st.integers(0, 3),
)
def test_parallel_hep_property(n, m, workers, batch, seed):
    """Property: any BSP schedule yields a complete, in-range assignment."""
    g = erdos_renyi(n, m, seed=seed)
    if g.num_edges < 4:
        return
    a, _ = parallel_hep(g, 4, tau=0.5, workers=workers, batch=batch)
    assert a.num_unassigned == 0
    assert a.partition_sizes().sum() == g.num_edges
