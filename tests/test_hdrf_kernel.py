"""The scalar HDRF kernel against the per-edge numpy reference.

``hdrf_stream`` scores only a few partitions per edge; the reference
below is the loop it replaced, one :func:`hdrf_scores` vector and one
``np.argmax`` per edge.  The property pins the two together bit for
bit: parts, replica matrix, loads and degrees, the ``CapacityError``
message, and the state that error leaves behind.  Both sides of the
out-of-core ≡ in-memory suites call the same kernel, so only this
comparison sees a change to it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import job
from repro.errors import CapacityError, ConfigurationError
from repro.graph.generators import chung_lu, ring
from repro.partition import hdrf_stream
from repro.partition.scoring import hdrf_scores
from repro.partition.state import StreamingState
from strategies import edge_lists


def reference_stream(state, edges, eids, parts_out, lam=1.1, eps=1.0):
    """The per-edge numpy loop: observe, score all k, argmax, place."""
    for i in range(edges.shape[0]):
        u = int(edges[i, 0])
        v = int(edges[i, 1])
        state.observe_edge(u, v)
        scores = hdrf_scores(state, u, v, lam=lam, eps=eps)
        p = int(np.argmax(scores))
        if scores[p] == -np.inf:
            raise CapacityError(
                "HDRF: all partitions at capacity "
                f"(capacity={state.capacity}, loads={state.loads.tolist()})"
            )
        state.place(u, v, p)
        parts_out[eids[i]] = p


def _state(n, k, capacity, exact, informed, seed):
    """Fresh or informed (seeded replicas and loads) streaming state."""
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, 30, n) if exact else None
    state = StreamingState(n, k, capacity, exact_degrees=degrees)
    if informed:
        state.replicas = rng.random((k, n)) < rng.random()
        state.loads = rng.integers(0, capacity + 2, k).astype(np.int64)
    return state


def _copy(state):
    """An independent copy of ``state`` (same degree mode)."""
    twin = StreamingState(
        state.num_vertices, state.k, state.capacity,
        exact_degrees=None if state.partial_degrees else state.degrees,
    )
    twin.replicas = state.replicas.copy()
    twin.loads = state.loads.copy()
    twin.degrees = state.degrees.copy()
    return twin


def _run(stream, state, edges, cuts, lam):
    """Stream ``edges`` in calls split at ``cuts``; (parts, error text)."""
    parts = np.full(edges.shape[0], -1, dtype=np.int64)
    eids = np.arange(edges.shape[0])
    bounds = [0, *cuts, edges.shape[0]]
    try:
        for lo, hi in zip(bounds, bounds[1:]):
            stream(state, edges[lo:hi], eids[lo:hi], parts, lam=lam)
    except CapacityError as exc:
        return parts, str(exc)
    return parts, None


# 1e-300 and 1e308 make neighbouring loads round to one score (1e308
# overflows to inf), the case where the kernel scores a group in full.
_LAMS = [0.0, 0.5, 1.1, 3.0, 1e-300, 1e308]


@settings(max_examples=80, deadline=None)
@given(
    edges=edge_lists(min_edges=1, max_edges=60, max_vertices=24),
    k=st.one_of(st.sampled_from([2, 8, 64, 65, 130, 256]),
                st.integers(min_value=2, max_value=256)),
    lam=st.sampled_from(_LAMS),
    exact=st.booleans(),
    informed=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_kernel_matches_numpy_reference(
    edges, k, lam, exact, informed, seed, data
):
    n = int(edges.max()) + 1
    # From 1 up: small capacities run the stream into CapacityError.
    capacity = data.draw(
        st.integers(min_value=1, max_value=edges.shape[0] // k + 3)
    )
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=edges.shape[0]), max_size=3
    )))
    start = _state(n, k, capacity, exact, informed, seed)
    expected_state, actual_state = _copy(start), _copy(start)
    with np.errstate(over="ignore"):  # lam=1e308 scores inf, as intended
        expected = _run(reference_stream, expected_state, edges, cuts, lam)
    actual = _run(hdrf_stream, actual_state, edges, cuts, lam)
    assert actual[1] == expected[1]
    assert np.array_equal(actual[0], expected[0])
    assert np.array_equal(actual_state.replicas, expected_state.replicas)
    assert np.array_equal(actual_state.loads, expected_state.loads)
    assert np.array_equal(actual_state.degrees, expected_state.degrees)


@pytest.mark.parametrize("k", [8, 96])
@pytest.mark.parametrize("exact", [False, True])
def test_kernel_matches_reference_on_a_power_law_stream(k, exact):
    """A hub-heavy stream in 500-edge calls: unions approach k."""
    graph = chung_lu(400, mean_degree=8, exponent=2.1, seed=7)
    capacity = -(-graph.num_edges // k)
    start = StreamingState.fresh(graph, k, capacity, use_exact_degrees=exact)
    expected_state, actual_state = _copy(start), _copy(start)
    cuts = list(range(500, graph.num_edges, 500))
    expected = _run(reference_stream, expected_state, graph.edges, cuts, 1.1)
    actual = _run(hdrf_stream, actual_state, graph.edges, cuts, 1.1)
    assert expected[1] is None and actual[1] is None
    assert np.array_equal(actual[0], expected[0])
    assert np.array_equal(actual_state.replicas, expected_state.replicas)
    assert np.array_equal(actual_state.loads, expected_state.loads)
    assert np.array_equal(actual_state.degrees, expected_state.degrees)


_OUT_OF_RANGE = [
    ({"eps": 0.0}, "eps must be a finite number > 0"),
    ({"eps": -1.0}, "eps must be a finite number > 0"),
    ({"lam": -2.0}, "lam must be a finite number >= 0"),
    ({"lam": float("inf")}, "lam must be a finite number >= 0"),
]
_IDS = ["eps-zero", "eps-negative", "lam-negative", "lam-inf"]


@pytest.mark.parametrize(
    "params,match",
    # Loads that all reach 10 swallow eps=1e-300: the balance term the
    # reference scored would be 0/0 (NaN) on every partition.
    [*_OUT_OF_RANGE, ({"eps": 1e-300}, "vanishes beside the equal")],
    ids=[*_IDS, "eps-tiny"],
)
def test_hdrf_partitioner_rejects_unusable_balance_params(params, match):
    with pytest.raises(ConfigurationError, match=match):
        job("HDRF", ring(40), 4, algo_params=params)


@pytest.mark.parametrize("params,match", _OUT_OF_RANGE, ids=_IDS)
def test_hep_phase_two_rejects_unusable_balance_params(params, match):
    graph = chung_lu(300, mean_degree=8, exponent=2.1, seed=7)
    with pytest.raises(ConfigurationError, match=match):
        job("HEP", graph, 4, tau=1.0, algo_params=params)
