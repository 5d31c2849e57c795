"""Scoring functions for stateful streaming partitioning (Algorithm 4).

Each scorer here rates the placement of one edge on *all* ``k``
partitions at once, as a numpy vector.  That is the reference form of
the score: ADWISE uses it directly.
The sequential HDRF stream (:func:`~repro.partition.hdrf.hdrf_stream`)
does not: it is a scalar kernel that scores only a few partitions per
edge with :func:`hdrf_scores`' float operations in the same order, and
places every edge exactly where ``np.argmax(hdrf_scores(...))`` would.

The HDRF score follows Petroni et al. (CIKM'15), the configuration the
paper uses for both the standalone HDRF baseline and HEP's streaming
phase (with ``lambda = 1.1``):

    C_REP(e, p) = g(u, p) + g(v, p)
    g(v, p)     = 1 + (1 - theta(v))   if v is replicated on p, else 0
    theta(v)    = d(v) / (d(u) + d(v))
    C_BAL(p)    = lambda * (maxload - load(p)) / (eps + maxload - minload)
    score       = C_REP + C_BAL

Partitions at capacity receive ``-inf`` so the hard balance constraint of
Algorithm 4 (only partitions with ``|p| < alpha |E| / k`` compete) is
honored.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from repro.errors import ConfigurationError
from repro.partition.state import StreamingState

__all__ = [
    "hdrf_scores", "check_hdrf_params", "greedy_choose", "NEG_INF",
]

NEG_INF = -np.inf


def check_hdrf_params(lam: float, eps: float) -> None:
    """Reject a balance weight or smoothing term the HDRF score cannot use.

    ``lam`` must be finite and ``>= 0`` (``0`` ignores balance), ``eps``
    finite and ``> 0``: with ``eps <= 0`` equal loads score ``0/0``.
    Raises :class:`~repro.errors.ConfigurationError`.
    """
    if not (_is_finite(lam) and lam >= 0):
        raise ConfigurationError(
            f"lam must be a finite number >= 0, got {lam!r}"
        )
    if not (_is_finite(eps) and eps > 0):
        raise ConfigurationError(
            f"eps must be a finite number > 0, got {eps!r}"
        )


def _is_finite(value) -> bool:
    """Whether ``value`` is a real number a float holds finitely."""
    try:
        return isinstance(value, Real) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def hdrf_scores(
    state: StreamingState,
    u: int,
    v: int,
    lam: float = 1.1,
    eps: float = 1.0,
) -> np.ndarray:
    """HDRF score of placing edge ``(u, v)`` on every partition."""
    du = state.degrees[u]
    dv = state.degrees[v]
    total = du + dv
    theta_u = du / total if total else 0.5
    theta_v = 1.0 - theta_u

    rep_u = state.replicas[:, u]
    rep_v = state.replicas[:, v]
    score = rep_u * (2.0 - theta_u) + rep_v * (2.0 - theta_v)

    loads = state.loads
    maxload = loads.max()
    minload = loads.min()
    score = score + lam * (maxload - loads) / (eps + maxload - minload)

    return np.where(state.open_mask(), score, NEG_INF)


def greedy_choose(
    state: StreamingState,
    u: int,
    v: int,
    remaining_u: int,
    remaining_v: int,
) -> int:
    """PowerGraph's greedy heuristic: pick a partition for edge ``(u, v)``.

    Case analysis (Gonzalez et al., OSDI'12), restricted to partitions
    below capacity:

    1. ``A(u) ∩ A(v)`` non-empty -> least loaded partition in it.
    2. both non-empty but disjoint -> least loaded partition of the
       endpoint with more *unassigned* edges left (it will need more
       placements, so keep its options open).
    3. exactly one non-empty -> least loaded partition in it.
    4. both empty -> least loaded partition overall.

    Returns ``-1`` if every partition is full.
    """
    open_mask = state.open_mask()
    if not open_mask.any():
        return -1
    rep_u = state.replicas[:, u] & open_mask
    rep_v = state.replicas[:, v] & open_mask
    both = rep_u & rep_v
    if both.any():
        return _least_loaded(state.loads, both)
    if rep_u.any() and rep_v.any():
        pick_u = remaining_u >= remaining_v
        return _least_loaded(state.loads, rep_u if pick_u else rep_v)
    if rep_u.any():
        return _least_loaded(state.loads, rep_u)
    if rep_v.any():
        return _least_loaded(state.loads, rep_v)
    return _least_loaded(state.loads, open_mask)


def _least_loaded(loads: np.ndarray, mask: np.ndarray) -> int:
    """Index of the minimum-load partition among ``mask``."""
    candidates = np.flatnonzero(mask)
    return int(candidates[np.argmin(loads[candidates])])
