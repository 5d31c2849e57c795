"""Compressed sparse row (CSR) graph representation with lazy edge removal.

This is the data structure of the paper's Figure 4:

* every *kept* undirected edge ``(u, v)`` appears as an **out-entry** in
  ``u``'s adjacency list and an **in-entry** in ``v``'s adjacency list,
* each vertex's adjacency list is split into ``[out-entries | in-entries]``
  with two index arrays (one per sub-list), so the last-partition sweep
  (Algorithm 3) can assign low/low edges from the left-hand vertex only,
* each sub-list carries a ``size`` field counting its *valid* prefix;
  removing an entry swaps it with the last valid entry and decrements the
  size — the constant-time "lazy edge removal" of Section 3.2.2,
* a parallel ``eid`` array maps every column entry back to the canonical
  edge id, so partition assignments can be recorded exactly once per edge.

When built with a high-degree mask (the pruned representation of Section
3.2.1), high-degree vertices get *no* adjacency lists: a low/high edge is
reachable only through the low-degree endpoint, and high/high edges are
diverted to :attr:`CsrGraph.h2h_edges` — the "external memory edge file"
that HEP later partitions by streaming.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.edgelist import Graph

__all__ = ["CsrGraph", "ExternalEdges"]


@dataclass(frozen=True)
class ExternalEdges:
    """Edges diverted out of memory at CSR build time (the h2h edges)."""

    pairs: np.ndarray  # (m_h2h, 2) oriented edge endpoints
    eids: np.ndarray   # (m_h2h,) canonical edge ids

    @property
    def num_edges(self) -> int:
        """Number of h2h edges held in this buffer."""
        return int(self.pairs.shape[0])

    def nbytes_binary(self) -> int:
        """Size as a 32-bit binary edge list (what HEP writes to disk)."""
        return self.num_edges * 2 * 4


def _grouped_positions(owners: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Target slots for entries to be packed per owning vertex.

    For each entry ``i``, the result is ``starts[owners[i]] + rank``, where
    ``rank`` is ``i``'s position among entries of the same owner (stable).
    """
    if owners.size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    is_first = np.empty(owners.size, dtype=bool)
    is_first[0] = True
    is_first[1:] = sorted_owners[1:] != sorted_owners[:-1]
    run_id = np.cumsum(is_first) - 1
    run_start = np.flatnonzero(is_first)
    rank = np.arange(owners.size, dtype=np.int64) - run_start[run_id]
    positions = np.empty(owners.size, dtype=np.int64)
    positions[order] = starts[sorted_owners] + rank
    return positions


class CsrGraph:
    """Mutable CSR over a :class:`Graph`, optionally pruned.

    The arrays are public on purpose — the partitioning hot loops index
    them directly.  All mutation goes through the removal methods so the
    valid-prefix invariant holds.

    Attributes
    ----------
    col, eid:
        Column array (neighbor ids) and the parallel canonical edge ids.
    out_start, out_size, in_start, in_size:
        Per-vertex sub-list windows.  The *capacity* of the out sub-list of
        ``v`` is ``in_start[v] - out_start[v]`` and never changes; ``size``
        fields shrink as edges are removed.
    degrees:
        Full original degrees (including pruned h2h edges) — the paper's
        streaming phase and threshold computations use true degrees.
    high_mask:
        Boolean array marking high-degree vertices (all ``False`` for an
        unpruned build).
    h2h_edges:
        :class:`ExternalEdges` holding the diverted high/high edges.
    """

    def __init__(
        self,
        num_vertices: int,
        col: np.ndarray,
        eid: np.ndarray,
        out_start: np.ndarray,
        out_size: np.ndarray,
        in_start: np.ndarray,
        in_size: np.ndarray,
        degrees: np.ndarray,
        high_mask: np.ndarray,
        h2h_edges: ExternalEdges,
        num_edges_total: int,
        num_csr_edges: int | None = None,
    ) -> None:
        self.num_vertices = num_vertices
        self.col = col
        self.eid = eid
        self.out_start = out_start
        self.out_size = out_size
        self.in_start = in_start
        self.in_size = in_size
        self.degrees = degrees
        self.high_mask = high_mask
        self.h2h_edges = h2h_edges
        self.num_edges_total = num_edges_total
        # When the h2h edges were diverted to disk (repro.stream.spill),
        # h2h_edges is empty and the kept-edge count is supplied directly.
        self._num_csr_edges = (
            num_edges_total - h2h_edges.num_edges
            if num_csr_edges is None
            else int(num_csr_edges)
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, graph: Graph, high_mask: np.ndarray | None = None) -> "CsrGraph":
        """Build the (optionally pruned) CSR in two vectorized passes.

        This follows the paper's graph-building procedure (Section 4.1):
        pass one computes degrees and index arrays; pass two scatters the
        edges into the column array or the external h2h buffer.
        """
        n = graph.num_vertices
        edges = graph.edges
        u, v = edges[:, 0], edges[:, 1]
        degrees = graph.degrees.copy()

        if high_mask is None:
            high_mask = np.zeros(n, dtype=bool)
        else:
            high_mask = np.asarray(high_mask, dtype=bool)
            if high_mask.shape != (n,):
                raise GraphFormatError("high_mask must have one flag per vertex")

        h2h = high_mask[u] & high_mask[v]
        keep = ~h2h
        eids_all = np.arange(graph.num_edges, dtype=np.int64)
        external = ExternalEdges(pairs=edges[h2h].copy(), eids=eids_all[h2h])

        return cls.from_arrays(
            num_vertices=n,
            pairs=edges[keep],
            eids=eids_all[keep],
            degrees=degrees,
            high_mask=high_mask,
            num_edges_total=graph.num_edges,
            external=external,
        )

    @classmethod
    def from_arrays(
        cls,
        num_vertices: int,
        pairs: np.ndarray,
        eids: np.ndarray,
        degrees: np.ndarray,
        high_mask: np.ndarray,
        num_edges_total: int,
        external: ExternalEdges | None = None,
    ) -> "CsrGraph":
        """Build a CSR from the *kept* (non-h2h) edges given explicitly.

        This is the out-of-core construction path (:mod:`repro.stream`):
        the caller accumulated ``pairs``/``eids`` chunk by chunk, diverting
        h2h edges to a spill file along the way, so no full in-memory
        :class:`Graph` ever exists.  ``pairs`` must not contain an edge
        whose endpoints are both flagged in ``high_mask``; ``degrees`` are
        the *true* degrees over all ``num_edges_total`` edges, including
        the diverted ones.  ``external`` defaults to an empty edge set (the
        diverted edges live on disk).
        """
        n = int(num_vertices)
        pairs = np.ascontiguousarray(pairs, dtype=np.int64).reshape(-1, 2)
        eids = np.ascontiguousarray(eids, dtype=np.int64)
        if eids.shape != (pairs.shape[0],):
            raise GraphFormatError("eids must parallel pairs")
        high_mask = np.asarray(high_mask, dtype=bool)
        if high_mask.shape != (n,):
            raise GraphFormatError("high_mask must have one flag per vertex")
        if external is None:
            external = ExternalEdges(
                pairs=np.empty((0, 2), dtype=np.int64),
                eids=np.empty(0, dtype=np.int64),
            )
        ku, kv, keid = pairs[:, 0], pairs[:, 1], eids
        # An out-entry exists at u unless u is pruned; same for the in-entry.
        out_entry = ~high_mask[ku]
        in_entry = ~high_mask[kv]

        out_counts = np.bincount(ku[out_entry], minlength=n).astype(np.int64)
        in_counts = np.bincount(kv[in_entry], minlength=n).astype(np.int64)
        caps = out_counts + in_counts
        out_start = np.zeros(n, dtype=np.int64)
        if n:
            out_start[1:] = np.cumsum(caps)[:-1]
        in_start = out_start + out_counts

        total = int(caps.sum())
        col = np.empty(total, dtype=np.int64)
        eid = np.empty(total, dtype=np.int64)

        pos = _grouped_positions(ku[out_entry], out_start)
        col[pos] = kv[out_entry]
        eid[pos] = keid[out_entry]
        pos = _grouped_positions(kv[in_entry], in_start)
        col[pos] = ku[in_entry]
        eid[pos] = keid[in_entry]

        return cls(
            num_vertices=n,
            col=col,
            eid=eid,
            out_start=out_start,
            out_size=out_counts.copy(),
            in_start=in_start,
            in_size=in_counts.copy(),
            degrees=np.asarray(degrees, dtype=np.int64),
            high_mask=high_mask,
            h2h_edges=external,
            num_edges_total=int(num_edges_total),
            num_csr_edges=int(pairs.shape[0]),
        )

    # -- read access ---------------------------------------------------------

    @property
    def num_csr_edges(self) -> int:
        """Number of undirected edges represented in the column array."""
        return self._num_csr_edges

    @property
    def is_pruned(self) -> bool:
        """True when any vertex is flagged high-degree (entries pruned)."""
        return bool(self.high_mask.any())

    def out_view(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Valid out-entries of ``v``: ``(neighbors, edge_ids)`` views."""
        s, e = self.out_start[v], self.out_start[v] + self.out_size[v]
        return self.col[s:e], self.eid[s:e]

    def in_view(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Valid in-entries of ``v``: ``(neighbors, edge_ids)`` views."""
        s, e = self.in_start[v], self.in_start[v] + self.in_size[v]
        return self.col[s:e], self.eid[s:e]

    def neighbors(self, v: int) -> np.ndarray:
        """All valid neighbors of ``v`` (out then in; copies)."""
        out_n, _ = self.out_view(v)
        in_n, _ = self.in_view(v)
        return np.concatenate([out_n, in_n])

    def adjacency(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """All valid ``(neighbors, edge_ids)`` of ``v`` (concatenated copy)."""
        out_n, out_e = self.out_view(v)
        in_n, in_e = self.in_view(v)
        return np.concatenate([out_n, in_n]), np.concatenate([out_e, in_e])

    def valid_degree(self, v: int) -> int:
        """Number of valid (unremoved) entries in ``v``'s adjacency list."""
        return int(self.out_size[v] + self.in_size[v])

    def column_bytes(self, id_bytes: int = 4) -> int:
        """Byte size of the column array at paper id width (Section 4.2)."""
        return int(self.col.size) * id_bytes

    # -- lazy removal ----------------------------------------------------------

    def remove_marked(self, vertices, marked: np.ndarray) -> int:
        """Remove every entry of ``vertices`` whose neighbor is flagged in
        ``marked``; returns the number of removed entries.

        This is the clean-up pass of Algorithm 2: ``marked`` is the
        ``C ∪ S_i`` membership mask and ``vertices`` are the members of
        ``S_i`` that stay outside the core — one vertex id or an array of
        them (a repeated id is compacted once).  Their out and in
        sub-lists form one segmented list: one mask picks the surviving
        entries and one stable scatter packs each sub-list's survivors to
        its front, in their original order.  Slots past a sub-list's new
        size keep stale values.  The result equals one call per vertex in
        any order.  The transient arrays hold a few words per valid entry
        of the given vertices, plus one byte per vertex.
        """
        chosen = np.zeros(self.num_vertices, dtype=bool)
        chosen[vertices] = True
        vs = np.flatnonzero(chosen)
        starts = np.concatenate([self.out_start[vs], self.in_start[vs]])
        sizes = np.concatenate([self.out_size[vs], self.in_size[vs]])
        total = int(sizes.sum())
        if total == 0:
            return 0
        # Flat list of every valid entry, sub-list by sub-list.
        flat_begin = np.cumsum(sizes) - sizes
        pos = np.arange(total) + np.repeat(starts - flat_begin, sizes)
        keep = ~marked[self.col[pos]]
        kept_before = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        num_kept = int(kept_before[-1])
        if num_kept == total:
            return 0
        seg_kept_before = kept_before[flat_begin]
        kept = kept_before[flat_begin + sizes] - seg_kept_before
        dest = np.arange(num_kept) + np.repeat(starts - seg_kept_before, kept)
        src = pos[keep]
        self.col[dest] = self.col[src]
        self.eid[dest] = self.eid[src]
        self.out_size[vs] = kept[: vs.size]
        self.in_size[vs] = kept[vs.size :]
        return total - num_kept

    def remove_edge_entry(self, v: int, neighbor: int, edge_id: int) -> bool:
        """Swap-remove the entry for ``edge_id`` from ``v``'s lists.

        Returns ``True`` if an entry was found and removed.  Used by the
        *eager* NE baseline; NE++ uses :meth:`remove_marked` instead.
        """
        for start_arr, size_arr in (
            (self.out_start, self.out_size),
            (self.in_start, self.in_size),
        ):
            s = start_arr[v]
            size = size_arr[v]
            window = self.eid[s : s + size]
            hits = np.flatnonzero(window == edge_id)
            if hits.size:
                slot = s + int(hits[0])
                last = s + size - 1
                self.col[slot] = self.col[last]
                self.eid[slot] = self.eid[last]
                size_arr[v] = size - 1
                return True
        return False

    # -- integrity -------------------------------------------------------------

    def check_invariants(self) -> None:
        """Validate structural invariants (tests and debugging only)."""
        n = self.num_vertices
        assert self.out_size.min(initial=0) >= 0
        assert self.in_size.min(initial=0) >= 0
        for v in range(n):
            out_cap = self.in_start[v] - self.out_start[v]
            end = self.out_start[v + 1] if v + 1 < n else self.col.size
            in_cap = end - self.in_start[v]
            assert 0 <= self.out_size[v] <= out_cap, f"out window of {v}"
            assert 0 <= self.in_size[v] <= in_cap, f"in window of {v}"
            if self.high_mask[v]:
                assert out_cap == 0 and in_cap == 0, f"pruned vertex {v} has entries"
        # Every valid eid must reference this vertex's edge.
        for v in range(n):
            for nbrs, eids in (self.out_view(v), self.in_view(v)):
                for u, e in zip(nbrs.tolist(), eids.tolist()):
                    assert 0 <= u < n
                    assert 0 <= e < self.num_edges_total

    def __repr__(self) -> str:
        return (
            f"CsrGraph(n={self.num_vertices:,}, csr_edges={self.num_csr_edges:,}, "
            f"h2h_edges={self.h2h_edges.num_edges:,}, pruned={self.is_pruned})"
        )
