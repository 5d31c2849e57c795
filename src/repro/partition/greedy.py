"""Greedy streaming vertex-cut (PowerGraph's heuristic).

Gonzalez et al. (OSDI'12).  One pass over the edge stream; each edge is
placed by the case analysis in
:func:`~repro.partition.scoring.greedy_choose`.  The paper lists Greedy
as a stateful streaming baseline that HDRF consistently outperforms.

The per-edge loop is :func:`greedy_stream`; the registered ``Greedy``
job (:mod:`repro.stream.driver`) feeds it one chunk at a time against
shared state, in memory or out of core.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError
from repro.partition.scoring import greedy_choose
from repro.partition.state import StreamingState

__all__ = ["greedy_stream"]


def greedy_stream(
    state: StreamingState,
    remaining: np.ndarray,
    edges: np.ndarray,
    eids: np.ndarray,
    parts_out: np.ndarray,
) -> None:
    """Stream a block of ``edges`` through the greedy heuristic.

    Mutates ``state`` and the per-vertex unassigned-edge counters
    ``remaining`` (case 2 of the heuristic), and fills
    ``parts_out[eids[i]]`` for every streamed edge.  One call over the
    whole edge array and successive chunks against shared state (the
    ``Greedy`` job) place every edge alike.
    """
    for i in range(edges.shape[0]):
        u = int(edges[i, 0])
        v = int(edges[i, 1])
        p = greedy_choose(state, u, v, int(remaining[u]), int(remaining[v]))
        if p < 0:
            raise CapacityError("Greedy: all partitions at capacity")
        state.place(u, v, p)
        remaining[u] -= 1
        remaining[v] -= 1
        parts_out[eids[i]] = p
