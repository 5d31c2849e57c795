"""Restreaming edge partitioning (multi-pass HDRF).

Nishimura & Ugander's *restreaming* model (discussed in the paper's
related work, Section 6) makes additional passes over the same edge
stream: later passes see the full state left by earlier ones, so early
uninformed placements get revised.  This module applies the idea to the
HDRF scorer as an extension beyond the paper's single-pass baselines —
HEP attacks the same uninformed-assignment problem with its in-memory
phase instead, which makes the two approaches directly comparable on
quality-vs-passes.

Implementation notes: replica state must support *removal* when an edge
moves, so instead of the boolean replica matrix this algorithm keeps a
per-(partition, vertex) incidence counter — a vertex stops being
replicated on a partition when its last incident edge leaves.

The per-edge revision loop is :func:`restream_block`; the registered
``Restreaming`` job (:mod:`repro.stream.driver`) runs it once per pass,
each pass one re-read of an
:class:`~repro.stream.reader.EdgeChunkSource`.  :func:`_choose` is the
incidence-counter HDRF score that
:class:`~repro.core.incremental.IncrementalHep` places insertions
with too.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError
from repro.partition.scoring import NEG_INF

__all__ = ["restream_block"]


def restream_block(
    pairs: np.ndarray,
    eids: np.ndarray,
    incidence: np.ndarray,
    loads: np.ndarray,
    degrees: np.ndarray,
    parts: np.ndarray,
    capacity: int,
    lam: float = 1.1,
    eps: float = 1.0,
) -> None:
    """Revise the assignment of a block of edges against shared state.

    For every edge the current placement (if any) is tentatively lifted
    out of ``incidence``/``loads``, the HDRF-style score is re-evaluated,
    and the edge lands on the best open partition (falling back to its
    old one when everything else is full).  Mutates ``incidence``,
    ``loads`` and ``parts`` in place; feeding the full edge list is one
    restreaming pass, feeding successive chunks of a re-read edge stream
    is the same pass out-of-core.
    """
    for i in range(pairs.shape[0]):
        u = int(pairs[i, 0])
        v = int(pairs[i, 1])
        e = int(eids[i])
        old = int(parts[e])
        if old >= 0:
            # Tentatively lift the edge out so scoring is unbiased.
            incidence[old, u] -= 1
            incidence[old, v] -= 1
            loads[old] -= 1
        p = _choose(incidence, loads, degrees, u, v, capacity, lam, eps)
        if p < 0:
            # No open partition (can only happen transiently while
            # the lifted edge frees one slot): put it back.
            if old < 0:
                raise CapacityError("restreaming: no open partition")
            p = old
        incidence[p, u] += 1
        incidence[p, v] += 1
        loads[p] += 1
        parts[e] = p


def _choose(
    incidence: np.ndarray,
    loads: np.ndarray,
    degrees: np.ndarray,
    u: int,
    v: int,
    capacity: int,
    lam: float,
    eps: float,
) -> int:
    """Best open partition for ``(u, v)`` by HDRF score over incidence counts.

    Returns -1 when every partition is at ``capacity``.
    """
    du = degrees[u]
    dv = degrees[v]
    total = du + dv
    theta_u = du / total if total else 0.5
    theta_v = 1.0 - theta_u
    rep_u = incidence[:, u] > 0
    rep_v = incidence[:, v] > 0
    score = rep_u * (2.0 - theta_u) + rep_v * (2.0 - theta_v)
    maxload = loads.max()
    minload = loads.min()
    score = score + lam * (maxload - loads) / (eps + maxload - minload)
    score = np.where(loads < capacity, score, NEG_INF)
    p = int(np.argmax(score))
    if score[p] == NEG_INF:
        return -1
    return p
