"""Incremental maintenance of a HEP partitioning under edge updates.

The paper's related work (Section 6) points at Fan et al.'s
incrementalization of iterative vertex-cut partitioners and notes it "is
also applicable to NE++".  This module implements that direction on top
of HEP's own machinery: the streaming phase *is already* an incremental
assimilator — its informed state (replica sets, degrees, loads) is
exactly what needs maintaining — so edge insertions stream through the
HDRF scorer against live state, and deletions retire replicas through
per-(partition, vertex) incidence counts.

Quality stays close to a from-scratch re-partitioning as long as updates
are a modest fraction of the graph (tests pin this), at a per-update
cost of one score evaluation instead of a full rerun.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.graph.edgelist import Graph, canonical_edges
from repro.partition.base import PartitionAssignment, capacity_bound
from repro.partition.restreaming import _choose
from repro.runtime.api import run_job
from repro.runtime.spec import make_job

__all__ = ["IncrementalHep"]


class IncrementalHep:
    """A HEP partitioning that absorbs edge insertions and deletions.

    The base assignment is a HEP job at ``tau`` with phase-two HDRF
    parameters ``lam`` and ``eps``; ``slack`` is extra per-partition
    headroom reserved for future insertions (a hard bound would reject
    the very first insert on a perfectly balanced partitioning).
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        tau: float = 10.0,
        lam: float = 1.1,
        eps: float = 1.0,
        slack: float = 1.05,
    ) -> None:
        if slack < 1.0:
            raise ConfigurationError(f"slack must be >= 1.0, got {slack}")
        self.k = k
        self.tau = tau
        self.lam = lam
        self.eps = eps
        self.slack = slack
        self.num_vertices = graph.num_vertices

        spec = make_job(
            "HEP", graph, k, tau=tau, algo_params={"lam": lam, "eps": eps}
        )
        assignment = run_job(spec, graph).to_assignment(graph)

        # Live state.  Incidence counts (not booleans) so deletions can
        # retire replicas exactly.
        self._edges: list[tuple[int, int]] = [tuple(e) for e in graph.edges.tolist()]
        self._parts: list[int] = assignment.parts.tolist()
        self._alive: list[bool] = [True] * len(self._edges)
        self._edge_index: dict[tuple[int, int], int] = {}
        for i, (u, v) in enumerate(self._edges):
            self._edge_index[(min(u, v), max(u, v))] = i
        self.incidence = np.zeros((k, graph.num_vertices), dtype=np.int32)
        u, v = graph.edges[:, 0], graph.edges[:, 1]
        np.add.at(self.incidence, (assignment.parts, u), 1)
        np.add.at(self.incidence, (assignment.parts, v), 1)
        self.loads = assignment.partition_sizes().copy()
        self.degrees = graph.degrees.copy()
        self._num_alive = len(self._edges)

    # -- updates -----------------------------------------------------------------

    def insert_edge(self, u: int, v: int) -> int:
        """Add edge ``(u, v)``; returns the chosen partition.

        Duplicate edges and self-loops are rejected — the maintained
        graph stays simple, like every input in the paper.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ConfigurationError(f"self-loop ({u}, {v})")
        key = (min(u, v), max(u, v))
        existing = self._edge_index.get(key)
        if existing is not None and self._alive[existing]:
            raise ConfigurationError(f"edge {key} already present")

        self.degrees[u] += 1
        self.degrees[v] += 1
        p = self._choose(u, v)
        if p < 0:
            raise CapacityError("no partition below the slack capacity")
        self._edges.append((u, v))
        self._parts.append(p)
        self._alive.append(True)
        self._edge_index[key] = len(self._edges) - 1
        self.incidence[p, u] += 1
        self.incidence[p, v] += 1
        self.loads[p] += 1
        self._num_alive += 1
        return p

    def delete_edge(self, u: int, v: int) -> None:
        """Remove edge ``(u, v)``; retires replicas whose last incident
        edge leaves a partition."""
        key = (min(u, v), max(u, v))
        idx = self._edge_index.get(key)
        if idx is None or not self._alive[idx]:
            raise ConfigurationError(f"edge {key} not present")
        p = self._parts[idx]
        self._alive[idx] = False
        del self._edge_index[key]
        self.incidence[p, u] -= 1
        self.incidence[p, v] -= 1
        self.loads[p] -= 1
        self.degrees[u] -= 1
        self.degrees[v] -= 1
        self._num_alive -= 1

    # -- queries ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of currently alive (non-deleted) edges."""
        return self._num_alive

    def current_assignment(self) -> PartitionAssignment:
        """Materialize the maintained partitioning as a standard result."""
        alive = [i for i, ok in enumerate(self._alive) if ok]
        edges = np.asarray([self._edges[i] for i in alive], dtype=np.int64)
        edges = edges.reshape(-1, 2)
        parts = np.asarray([self._parts[i] for i in alive], dtype=np.int32)
        assert canonical_edges(edges).shape == edges.shape, "graph must stay simple"
        graph = Graph(edges, self.num_vertices, name="incremental")
        return PartitionAssignment(graph, self.k, parts)

    def replication_factor(self) -> float:
        """Replication factor of the maintained assignment."""
        replicas = (self.incidence > 0).sum(axis=0)
        covered = self.degrees > 0
        denom = max(int(covered.sum()), 1)
        return float(replicas[covered].sum() / denom)

    # -- internals ------------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise ConfigurationError(
                f"vertex {v} outside universe [0, {self.num_vertices})"
            )

    def _capacity(self) -> int:
        return capacity_bound(max(self._num_alive + 1, 1), self.k, self.slack)

    def _choose(self, u: int, v: int) -> int:
        """Informed HDRF over the live incidence state."""
        return _choose(
            self.incidence, self.loads, self.degrees, u, v,
            self._capacity(), self.lam, self.eps,
        )
