"""Shared state of stateful streaming partitioning (Algorithm 4's inputs).

The scoring functions of HDRF/Greedy/ADWISE need three pieces of state:

* which partitions each vertex is currently replicated on,
* the load (edge count) of every partition,
* vertex degrees — either *exact* (known upfront) or *partial* (counted
  while streaming, as in the original HDRF paper).

HEP's key trick (Section 3.3, "informed streaming") is to pre-populate
this state from the NE++ phase: the secondary-set bitsets become the
replica matrix, the partition loads carry over, and exact degrees are
available from graph building.  :meth:`StreamingState.informed` is that
hand-over point.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.edgelist import Graph

__all__ = ["StreamingState"]


class StreamingState:
    """Mutable replica/load/degree state shared by scoring functions."""

    def __init__(
        self,
        num_vertices: int,
        k: int,
        capacity: int,
        exact_degrees: np.ndarray | None = None,
    ) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.num_vertices = num_vertices
        self.k = k
        self.capacity = capacity
        #: replicas[p, v] — vertex v is replicated on partition p
        self.replicas = np.zeros((k, num_vertices), dtype=bool)
        #: loads[p] — number of edges currently assigned to p
        self.loads = np.zeros(k, dtype=np.int64)
        if exact_degrees is not None:
            self.degrees = np.asarray(exact_degrees, dtype=np.int64).copy()
            self._partial = False
        else:
            self.degrees = np.zeros(num_vertices, dtype=np.int64)
            self._partial = True

    # -- constructors ----------------------------------------------------------

    @classmethod
    def fresh(
        cls,
        graph: Graph,
        k: int,
        capacity: int,
        use_exact_degrees: bool = False,
    ) -> "StreamingState":
        """Empty state for standalone streaming over ``graph``.

        With ``use_exact_degrees=False`` (the HDRF paper's setting) degrees
        are *partial*: they count only the edges seen so far in the stream.
        """
        return cls(
            graph.num_vertices,
            k,
            capacity,
            exact_degrees=graph.degrees if use_exact_degrees else None,
        )

    @classmethod
    def informed(
        cls,
        graph: Graph,
        k: int,
        capacity: int,
        replicas: np.ndarray,
        loads: np.ndarray,
    ) -> "StreamingState":
        """State seeded from an in-memory phase (HEP Section 3.3).

        ``replicas`` is the ``(k, n)`` secondary-set matrix produced by
        NE++ ("a vertex is replicated in partition p_i exactly if it is in
        S_i"); ``loads`` are the per-partition edge counts after phase one.
        """
        return cls.informed_arrays(
            graph.num_vertices, graph.degrees, k, capacity, replicas, loads
        )

    @classmethod
    def informed_arrays(
        cls,
        num_vertices: int,
        degrees: np.ndarray,
        k: int,
        capacity: int,
        replicas: np.ndarray,
        loads: np.ndarray,
    ) -> "StreamingState":
        """:meth:`informed` from bare arrays — no :class:`Graph` required.

        The out-of-core pipeline (:mod:`repro.stream`) knows the exact
        degrees from its counting pass but never holds the full edge list,
        so the hand-over is expressed in terms of arrays alone.
        """
        state = cls(num_vertices, k, capacity, exact_degrees=degrees)
        replicas = np.asarray(replicas, dtype=bool)
        if replicas.shape != (k, num_vertices):
            raise ConfigurationError("replica matrix must be (k, n)")
        state.replicas = replicas.copy()
        loads = np.asarray(loads, dtype=np.int64)
        if loads.shape != (k,):
            raise ConfigurationError("loads must be (k,)")
        state.loads = loads.copy()
        return state

    @property
    def partial_degrees(self) -> bool:
        """Whether ``degrees`` count only the edges streamed so far."""
        return self._partial

    # -- stream operations -------------------------------------------------------

    def observe_edge(self, u: int, v: int) -> None:
        """Account for an arriving edge in partial-degree mode (HDRF
        increments partial degrees *before* scoring the edge)."""
        if self._partial:
            self.degrees[u] += 1
            self.degrees[v] += 1

    def open_mask(self) -> np.ndarray:
        """Boolean mask of partitions that still have room."""
        return self.loads < self.capacity

    def place(self, u: int, v: int, p: int) -> None:
        """Record the assignment of edge ``(u, v)`` to partition ``p``."""
        self.replicas[p, u] = True
        self.replicas[p, v] = True
        self.loads[p] += 1

    # -- queries -------------------------------------------------------------------

    def replica_counts(self) -> np.ndarray:
        """Number of partitions each vertex is replicated on."""
        return self.replicas.sum(axis=0)

    def total_replicas(self) -> int:
        """Total replica count over all partitions (rf numerator)."""
        return int(self.replicas.sum())

    def min_max_load(self) -> tuple[int, int]:
        """Smallest and largest current partition load."""
        return int(self.loads.min()), int(self.loads.max())
