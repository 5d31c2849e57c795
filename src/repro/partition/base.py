"""Partitioner framework: the assignment container and the base class.

Every partitioning of an in-memory :class:`~repro.graph.edgelist.Graph`
— a job's parts
(:meth:`~repro.runtime.result.PartitionResult.to_assignment`) or the
output of a :class:`Partitioner` class, the kernel an in-memory
baseline's job runs — is a :class:`PartitionAssignment`: one partition
id per canonical edge.  All
quality metrics (replication factor, balance) are derived from that
single array, so results from very different algorithms are directly
comparable and checkable.

:func:`mark_cover` is the one vertex-cover kernel: the in-memory
:meth:`PartitionAssignment.cover_matrix`, the streamed metrics pass
(:func:`repro.stream.scan.chunked_quality`) and the service's vertex
lookups (:mod:`repro.serve.artifacts`) all mark their covers with it.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigurationError, PartitioningError
from repro.graph.edgelist import Graph

__all__ = [
    "PartitionAssignment", "Partitioner", "capacity_bound", "mark_cover",
]

UNASSIGNED = -1


def capacity_bound(num_edges: int, k: int, alpha: float = 1.0) -> int:
    """Per-partition edge capacity ``ceil(alpha * |E| / k)``.

    This is the paper's balancing constraint ``|p_i| <= alpha * |E| / k``
    rounded up so that a perfectly balanced assignment is always feasible.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if alpha < 1.0:
        raise ConfigurationError(f"alpha must be >= 1.0, got {alpha}")
    return max(1, int(np.ceil(alpha * num_edges / k)))


def mark_cover(
    cover: np.ndarray,
    ps: np.ndarray,
    pairs: np.ndarray,
    lo: int | None = None,
) -> None:
    """Mark a block of edges in a bool ``(k, width)`` vertex cover.

    Sets ``cover[p, v - lo]`` for both endpoints ``v`` of every edge
    whose part ``p`` (``ps``, one entry per row of ``pairs``) is not
    negative: one flat scatter per endpoint column into the C-contiguous
    ``cover``.  Callers count the marked pairs with ``np.count_nonzero``.
    Unassigned (negative) edges are masked out, so they cannot wrap into
    partition ``k - 1``.

    ``lo`` is the first vertex of a column block narrower than the
    universe: endpoints outside ``[lo, lo + width)`` belong to another
    block and are skipped.  ``None`` means the block is the whole
    universe, so every endpoint indexes it directly and the range test
    is skipped.
    """
    assigned = ps >= 0
    if not assigned.all():
        ps, pairs = ps[assigned], pairs[assigned]
    width = cover.shape[1]
    flat = cover.reshape(-1)
    base = ps.astype(np.int64) * width  # k * width can exceed 2**31
    for col in (0, 1):
        vs = pairs[:, col]
        if lo is None:
            flat[base + vs] = True
            continue
        rel = vs.astype(np.int64) - lo
        inside = (rel >= 0) & (rel < width)
        flat[base[inside] + rel[inside]] = True


class PartitionAssignment:
    """Edge partitioning result: ``parts[e]`` is the partition of edge ``e``.

    The heavy metrics live in :mod:`repro.metrics`; the methods here are
    thin conveniences that delegate to them.
    """

    def __init__(self, graph: Graph, k: int, parts: np.ndarray) -> None:
        parts = np.asarray(parts, dtype=np.int32)
        if parts.shape != (graph.num_edges,):
            raise ConfigurationError(
                f"parts must have one entry per edge "
                f"({graph.num_edges}), got shape {parts.shape}"
            )
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.graph = graph
        self.k = int(k)
        self.parts = parts

    @classmethod
    def empty(cls, graph: Graph, k: int) -> "PartitionAssignment":
        """All-unassigned result to be filled in by a partitioner."""
        return cls(graph, k, np.full(graph.num_edges, UNASSIGNED, dtype=np.int32))

    # -- bookkeeping -----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Number of edges assigned (the graph's edge count)."""
        return self.graph.num_edges

    @property
    def num_vertices(self) -> int:
        """Size of the graph's vertex universe."""
        return self.graph.num_vertices

    @property
    def num_unassigned(self) -> int:
        """Number of edges still carrying the UNASSIGNED marker."""
        return int((self.parts == UNASSIGNED).sum())

    def partition_sizes(self) -> np.ndarray:
        """Number of edges in each partition (ignores unassigned)."""
        assigned = self.parts[self.parts >= 0]
        return np.bincount(assigned, minlength=self.k).astype(np.int64)

    def partition_edges(self, p: int) -> np.ndarray:
        """Edge ids assigned to partition ``p``."""
        return np.flatnonzero(self.parts == p)

    def cover_matrix(self) -> np.ndarray:
        """Boolean ``(k, n)`` matrix: partition ``p`` covers vertex ``v``."""
        cover = np.zeros((self.k, self.graph.num_vertices), dtype=bool)
        mark_cover(cover, self.parts, self.graph.edges)
        return cover

    # -- metric conveniences ---------------------------------------------------

    def replication_factor(self) -> float:
        """Mean number of partitions each covered vertex appears in."""
        from repro.metrics.replication import replication_factor

        return replication_factor(self)

    def balance(self) -> float:
        """Edge balance alpha: largest partition over the perfect share."""
        from repro.metrics.balance import edge_balance

        return edge_balance(self)

    def __repr__(self) -> str:
        return (
            f"PartitionAssignment(k={self.k}, m={self.graph.num_edges:,}, "
            f"unassigned={self.num_unassigned})"
        )


class Partitioner(abc.ABC):
    """Base class: a named algorithm mapping ``(graph, k)`` to an assignment.

    Subclasses implement :meth:`partition`.  Configuration (``alpha``,
    ``tau``, seeds, ...) belongs in the constructor so one configured
    instance can be applied to many graphs — the way the experiment
    harness sweeps them.
    """

    #: short identifier used in tables ("NE", "SNE", "METIS", ...)
    name: str = "base"

    @abc.abstractmethod
    def partition(self, graph: Graph, k: int) -> PartitionAssignment:
        """Partition the edges of ``graph`` into ``k`` parts."""

    def _require_k(self, graph: Graph, k: int) -> None:
        if k < 2:
            raise ConfigurationError(f"{self.name}: k must be >= 2, got {k}")
        if graph.num_edges == 0:
            raise PartitioningError(f"{self.name}: graph has no edges")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
