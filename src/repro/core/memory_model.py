"""Analytic memory models (paper Section 4.2 and Figure 8/9 memory panels).

The paper reports maximum resident set size of C++ processes.  A pure
Python reproduction cannot measure that meaningfully (interpreter object
overhead would dominate), but Section 4.2 *derives* HEP's footprint as a
closed formula over the degree distribution — so we evaluate that
formula, and analogous formulas for every baseline, at the paper's id
width (4-byte vertex ids).  These are the numbers the memory-overhead
panels compare; ``tracemalloc`` peaks are available separately through
the experiment harness as a secondary sanity signal.

HEP (Section 4.2, verbatim):

    sum_{v in V_l} d_csr(v) * b          -- pruned column array
    + 2 |V| b                            -- out/in index arrays
    + 2 |V| b                            -- out/in size fields
    + |V| (k+1) / 8                      -- k secondary bitsets + core bitset
    + 2 |V| b                            -- min-heap + position lookup
"""

from __future__ import annotations

import numpy as np

from repro.core.hep import hep_tau_from_name
from repro.errors import ConfigurationError
from repro.graph.edgelist import Graph
from repro.graph.pruned import high_degree_mask

__all__ = [
    "pruned_column_entries",
    "hep_memory_bytes",
    "hep_memory_bytes_from_entries",
    "ne_memory_bytes",
    "ne_plus_plus_memory_bytes",
    "sne_memory_bytes",
    "dne_memory_bytes",
    "metis_memory_bytes",
    "streaming_memory_bytes",
    "restreaming_memory_bytes",
    "stateless_memory_bytes",
    "memory_model_for",
]


def pruned_column_entries(graph: Graph, tau: float) -> int:
    """Number of column-array entries after pruning at ``tau``.

    Each low/low edge contributes two entries, each low/high edge one,
    each high/high edge zero — computed from the degree distribution
    without building the CSR (this is the cheap pass Section 4.4's
    precomputation relies on).
    """
    high = high_degree_mask(graph, tau)
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    hu, hv = high[u], high[v]
    low_low = int((~hu & ~hv).sum())
    mixed = int((hu ^ hv).sum())
    return 2 * low_low + mixed


def hep_memory_bytes(graph: Graph, tau: float, k: int, id_bytes: int = 4) -> int:
    """Section 4.2's total for HEP at threshold ``tau``."""
    return hep_memory_bytes_from_entries(
        pruned_column_entries(graph, tau), graph.num_vertices, k, id_bytes
    )


def hep_memory_bytes_from_entries(
    column_entries: int, num_vertices: int, k: int, id_bytes: int = 4
) -> int:
    """Section 4.2's total given a precomputed column-entry count.

    The out-of-core pipeline counts column entries chunk by chunk (it
    never holds the edge array needed by :func:`pruned_column_entries`)
    and evaluates the same closed formula through this entry point.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    n = num_vertices
    column = column_entries * id_bytes
    vertex_arrays = 6 * n * id_bytes          # index x2, size x2, heap x2
    bitsets = n * (k + 1) // 8 + 1
    return column + vertex_arrays + bitsets


def ne_plus_plus_memory_bytes(graph: Graph, k: int, id_bytes: int = 4) -> int:
    """NE++ without pruning: full column array, same vertex structures."""
    n = graph.num_vertices
    column = 2 * graph.num_edges * id_bytes
    return column + 6 * n * id_bytes + n * (k + 1) // 8 + 1


def ne_memory_bytes(graph: Graph, k: int, id_bytes: int = 4) -> int:
    """Reference NE: full CSR **plus** the eager auxiliary edge list.

    The reference implementation keeps an unsorted edge list to track
    which edges are still valid (Section 3.2.2 calls this out as the
    memory NE++'s lazy removal saves), roughly one ``(u, v)`` pair plus a
    validity flag per edge.
    """
    m = graph.num_edges
    aux_edge_list = 2 * m * id_bytes + m  # pairs + 1-byte flags
    return ne_plus_plus_memory_bytes(graph, k, id_bytes) + aux_edge_list


def sne_memory_bytes(
    graph: Graph, k: int, sample_factor: float = 2.0, id_bytes: int = 4
) -> int:
    """SNE: bounded in-memory sample of ``sample_factor * |E| / k`` edges
    (adjacency form) plus per-vertex bookkeeping."""
    n = graph.num_vertices
    sample_edges = int(sample_factor * graph.num_edges / k)
    return 2 * sample_edges * id_bytes + 4 * n * id_bytes + n * (k + 1) // 8 + 1


def dne_memory_bytes(graph: Graph, k: int, id_bytes: int = 4) -> int:
    """DNE: one process per partition, each holding graph shards plus
    exchange buffers — measured at roughly an order of magnitude above
    HEP in the paper.  Modeled as two full graph copies (CSR + edge
    exchange buffers) plus per-process frontier state."""
    n = graph.num_vertices
    m = graph.num_edges
    per_process_state = 2 * n * id_bytes  # frontier + ownership per process
    return 4 * m * id_bytes + k * per_process_state + 2 * n * id_bytes


def metis_memory_bytes(graph: Graph, k: int, id_bytes: int = 4) -> int:
    """METIS-family multilevel: the coarsening hierarchy retains the
    finest graph plus a geometric series of coarser ones (~2x finest in
    total) and per-level matching/weight/partition workspace."""
    n = graph.num_vertices
    m = graph.num_edges
    hierarchy = 3 * (2 * m * id_bytes)       # finest + coarser levels
    per_level_arrays = 8 * n * id_bytes      # match/map/weights/boundary
    return hierarchy + per_level_arrays


def streaming_memory_bytes(graph: Graph, k: int, id_bytes: int = 4) -> int:
    """Stateful streaming (HDRF/Greedy/ADWISE): replica bitsets, partial
    degrees and loads — no graph storage at all."""
    n = graph.num_vertices
    return n * k // 8 + 1 + n * id_bytes + k * 8


def restreaming_memory_bytes(graph: Graph, k: int, id_bytes: int = 4) -> int:
    """Restreaming HDRF: what :func:`~repro.partition.restreaming.
    restream_block` holds — a ``k x n`` incidence counter (counts, not
    bits, so an edge can move between passes), degrees and loads."""
    n = graph.num_vertices
    return k * n * id_bytes + n * id_bytes + k * 8


def stateless_memory_bytes(graph: Graph, k: int, id_bytes: int = 4) -> int:
    """Stateless streaming (DBH/Grid): degree array plus loads."""
    return graph.num_vertices * id_bytes + k * 8


def memory_model_for(
    partitioner_name: str, graph: Graph, k: int, id_bytes: int = 4
) -> int:
    """Dispatch a partitioner's table name to its memory model.

    ``HEP-<tau>`` names carry their threshold, read by
    :func:`~repro.core.hep.hep_tau_from_name`: ``HEP-10`` -> ``tau =
    10``, ``HEP-inf`` -> unpruned NE++.  A malformed ``HEP-<tau>`` name
    raises its :class:`~repro.errors.ConfigurationError`; plain ``HEP``
    names no tau, so like any other unknown name it has no model.
    """
    tau = hep_tau_from_name(partitioner_name)
    if tau is not None:
        if np.isinf(tau):
            return ne_plus_plus_memory_bytes(graph, k, id_bytes)
        return hep_memory_bytes(graph, tau, k, id_bytes)
    dispatch = {
        "NE": ne_memory_bytes,
        "NE++": ne_plus_plus_memory_bytes,
        "SNE": sne_memory_bytes,
        "DNE": dne_memory_bytes,
        "METIS": metis_memory_bytes,
        "HDRF": streaming_memory_bytes,
        "GREEDY": streaming_memory_bytes,
        "ADWISE": streaming_memory_bytes,
        "RESTREAMING": restreaming_memory_bytes,
        "DBH": stateless_memory_bytes,
        "GRID": stateless_memory_bytes,
        "RANDOM": stateless_memory_bytes,
    }
    name = partitioner_name.upper()
    if name not in dispatch:
        raise ConfigurationError(f"no memory model for partitioner {partitioner_name!r}")
    return dispatch[name](graph, k, id_bytes)
