"""Graph container and edge-list input/output.

The paper's partitioners consume the graph as a *binary edge list with
32-bit vertex ids* (Appendix A).  This module provides that format, a
human-readable text format, and the in-memory :class:`Graph` container all
partitioners operate on.

A :class:`Graph` is an undirected, unweighted simple graph.  Edges keep
the *orientation* they had in the input stream — NE++'s last-partition
sweep (Algorithm 3) assigns low/low edges "from the perspective of the
left-hand side vertex of the edge in the original edge list", so the
stored ``(u, v)`` order is semantically meaningful even though the graph
is undirected.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError

__all__ = [
    "Graph",
    "canonical_edges",
    "read_binary_edgelist",
    "write_binary_edgelist",
    "read_text_edgelist",
    "write_text_edgelist",
]

#: on-disk vertex id: little-endian unsigned 32-bit, per the paper
BINARY_DTYPE = np.dtype("<u4")


class Graph:
    """Undirected simple graph stored as an oriented edge array.

    Parameters
    ----------
    edges:
        ``(m, 2)`` integer array.  Must already be canonical (no
        self-loops, no duplicate undirected edges); use
        :meth:`Graph.from_edges` for raw input.
    num_vertices:
        Universe size ``n``; vertex ids are ``0 .. n-1``.
    name:
        Optional label used in reports.
    """

    __slots__ = ("_edges", "_num_vertices", "name", "_degrees")

    def __init__(self, edges: np.ndarray, num_vertices: int, name: str = "") -> None:
        edges = np.ascontiguousarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphFormatError(f"edges must be (m, 2), got shape {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= num_vertices):
            raise GraphFormatError("edge endpoint outside [0, num_vertices)")
        self._edges = edges
        self._edges.setflags(write=False)
        self._num_vertices = int(num_vertices)
        self.name = name
        self._degrees: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: np.ndarray | list[tuple[int, int]],
        num_vertices: int | None = None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from a raw edge stream.

        Self-loops are dropped and duplicate undirected edges are removed,
        keeping the *first* occurrence (and its orientation) so that the
        canonical order still reflects the input stream.
        """
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError(f"edges must be (m, 2), got shape {arr.shape}")
        if arr.size and arr.min() < 0:
            raise GraphFormatError("negative vertex id")
        n = int(num_vertices) if num_vertices is not None else (
            int(arr.max()) + 1 if arr.size else 0
        )
        return cls(canonical_edges(arr), n, name=name)

    # -- basic properties ----------------------------------------------------

    @property
    def edges(self) -> np.ndarray:
        """The canonical ``(m, 2)`` oriented edge array (read-only)."""
        return self._edges

    @property
    def num_vertices(self) -> int:
        """Number of vertex ids in the universe (``n``)."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (``m``)."""
        return int(self._edges.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex (computed once, then cached)."""
        if self._degrees is None:
            deg = np.bincount(
                self._edges.ravel(), minlength=self._num_vertices
            ).astype(np.int64)
            deg.setflags(write=False)
            self._degrees = deg
        return self._degrees

    @property
    def mean_degree(self) -> float:
        """Average degree over all ``n`` vertices (the paper's ``d̄``)."""
        if self._num_vertices == 0:
            return 0.0
        return 2.0 * self.num_edges / self._num_vertices

    @property
    def num_covered_vertices(self) -> int:
        """Number of vertices with degree >= 1 (used to normalize RF)."""
        return int((self.degrees > 0).sum())

    def subgraph_edges(self, edge_mask: np.ndarray, name: str = "") -> "Graph":
        """Graph over the same vertex universe keeping ``edge_mask`` edges."""
        return Graph(self._edges[edge_mask], self._num_vertices, name=name)

    def binary_size_bytes(self) -> int:
        """Size of this graph as a binary 32-bit edge list (Table 3 'Size')."""
        return self.num_edges * 2 * 4

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Graph({label} n={self.num_vertices:,} m={self.num_edges:,} "
            f"mean_degree={self.mean_degree:.2f})"
        )


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Drop self-loops and duplicate undirected edges from an edge array.

    The first occurrence of each undirected edge wins and keeps its
    original orientation and (relative) stream position.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return edges.reshape(0, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    if edges.size == 0:
        return edges.reshape(0, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    # Collapse the unordered pair into one sortable key.
    key = lo * (hi.max() + 1) + hi
    _, first_idx = np.unique(key, return_index=True)
    first_idx.sort()
    return edges[first_idx]


# -- binary format (paper Appendix A) ----------------------------------------


def write_binary_edgelist(graph: Graph, path: str | os.PathLike) -> int:
    """Write ``graph`` as a flat little-endian uint32 pair stream.

    Returns the number of bytes written.  This is the on-disk format the
    paper feeds to HEP, HDRF, DBH, NE and SNE.
    """
    if graph.num_vertices > 2**32:
        raise GraphFormatError("binary format supports at most 2^32 vertices")
    data = graph.edges.astype(BINARY_DTYPE)
    with open(path, "wb") as fh:
        data.tofile(fh)
    return data.nbytes


def read_binary_edgelist(
    path: str | os.PathLike, num_vertices: int | None = None, name: str = ""
) -> Graph:
    """Read a binary uint32 edge list written by :func:`write_binary_edgelist`."""
    size = Path(path).stat().st_size
    if size % 8 != 0:
        raise GraphFormatError(
            f"{path}: binary edge list length {size} is not a multiple of 8"
        )
    with open(path, "rb") as fh:
        flat = np.fromfile(fh, dtype=BINARY_DTYPE)
    return Graph.from_edges(flat.reshape(-1, 2), num_vertices, name=name)


# -- text format ---------------------------------------------------------------


def write_text_edgelist(graph: Graph, path: str | os.PathLike) -> None:
    """Write ``graph`` as whitespace-separated ``u v`` lines."""
    with open(path, "w", encoding="ascii") as fh:
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def read_text_edgelist(
    path: str | os.PathLike, num_vertices: int | None = None, name: str = ""
) -> Graph:
    """Read a text edge list; ``#``-prefixed lines are comments."""
    pairs: list[tuple[int, int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: non-integer id") from exc
    if not pairs:
        return Graph.from_edges(np.empty((0, 2), dtype=np.int64), num_vertices, name)
    return Graph.from_edges(np.asarray(pairs), num_vertices, name=name)

