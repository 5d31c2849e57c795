"""Property-based tests for the processing algorithms' mathematical
invariants, independent of any particular graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import job
from repro.graph.generators import erdos_renyi
from repro.partition import RandomStreamPartitioner
from repro.processing import VertexCutEngine, bfs, connected_components, pagerank


def _engine(n, m, seed, k=4):
    g = erdos_renyi(n, m, seed=seed)
    if g.num_edges < k:
        return None
    return VertexCutEngine(job("DBH", g, k))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(6, 40), m=st.integers(8, 120), seed=st.integers(0, 5))
def test_pagerank_is_a_distribution(n, m, seed):
    """Ranks are positive and sum to ~1 (damped walk conservation)."""
    engine = _engine(n, m, seed)
    if engine is None:
        return
    result = pagerank(engine, iterations=50)
    ranks = result.values
    assert (ranks > 0).all()
    assert ranks.sum() == pytest.approx(1.0, abs=0.05)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(6, 40), m=st.integers(8, 120), seed=st.integers(0, 5))
def test_bfs_distances_respect_edges(n, m, seed):
    """Adjacent vertices' BFS levels differ by at most one."""
    engine = _engine(n, m, seed)
    if engine is None:
        return
    graph = engine.graph
    sources = np.flatnonzero(graph.degrees > 0)[:1]
    if sources.size == 0:
        return
    result = bfs(engine, seeds=sources.tolist())
    dist = result.values[0]
    for u, v in graph.edges.tolist():
        if dist[u] >= 0 and dist[v] >= 0:
            assert abs(dist[u] - dist[v]) <= 1
        else:
            # Reachability is symmetric along an edge.
            assert dist[u] == dist[v] == -1


@settings(max_examples=20, deadline=None)
@given(n=st.integers(6, 40), m=st.integers(8, 120), seed=st.integers(0, 5))
def test_cc_labels_are_component_minima(n, m, seed):
    """Every vertex's label equals the smallest vertex id reachable from
    it, and endpoints of every edge share a label."""
    engine = _engine(n, m, seed)
    if engine is None:
        return
    graph = engine.graph
    labels = connected_components(engine).values
    for u, v in graph.edges.tolist():
        assert labels[u] == labels[v]
    # Labels are idempotent: the label's label is itself.
    for v in range(graph.num_vertices):
        assert labels[labels[v]] == labels[v]
        assert labels[v] <= v


@settings(max_examples=15, deadline=None)
@given(n=st.integers(6, 30), m=st.integers(8, 80), seed=st.integers(0, 4))
def test_costs_are_partitioning_independent_values(n, m, seed):
    """Algorithm *values* must not depend on the partitioning; only the
    simulated costs may."""
    g = erdos_renyi(n, m, seed=seed)
    if g.num_edges < 4:
        return
    e1 = VertexCutEngine(job("DBH", g, 4))
    e2 = VertexCutEngine(RandomStreamPartitioner(seed=seed).partition(g, 4))
    r1 = pagerank(e1, iterations=10)
    r2 = pagerank(e2, iterations=10)
    assert np.allclose(r1.values, r2.values)
    c1 = connected_components(e1)
    c2 = connected_components(e2)
    assert np.array_equal(c1.values, c2.values)
