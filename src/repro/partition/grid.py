"""Grid: 2-D constrained hashing (GraphBuilder's stateless partitioner).

Jain et al. (GRADES'13).  Partitions are arranged in an ``r x c`` grid.
Every vertex hashes to a home cell; its *shard candidate set* is the home
row plus home column.  An edge may be placed on any cell in the
intersection of its endpoints' candidate sets — we take the pair of
crossing cells and keep the one with the lower current load.  This bounds
the replication factor of any vertex by ``r + c - 1`` while staying
stateless apart from load counters.
"""

from __future__ import annotations

import numpy as np

from repro.partition.dbh import hash_vertices

__all__ = ["grid_shape", "grid_cells", "grid_stream"]


def grid_shape(k: int) -> tuple[int, int]:
    """Most-square factorization ``r * c = k`` (``r <= c``)."""
    r = int(np.sqrt(k))
    while r > 1 and k % r != 0:
        r -= 1
    return r, k // r


def grid_cells(
    pairs: np.ndarray, rows: int, cols: int, salt: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Crossing candidate cells of each edge on an ``rows x cols`` grid.

    Pure elementwise function of the endpoints, so it can be evaluated
    chunk by chunk with identical results.
    """
    u, v = pairs[:, 0], pairs[:, 1]
    hu = hash_vertices(u, salt)
    hv = hash_vertices(v, salt)
    row_u = (hu % np.uint64(rows)).astype(np.int64)
    col_u = ((hu >> np.uint64(16)) % np.uint64(cols)).astype(np.int64)
    row_v = (hv % np.uint64(rows)).astype(np.int64)
    col_v = ((hv >> np.uint64(16)) % np.uint64(cols)).astype(np.int64)
    return row_u * cols + col_v, row_v * cols + col_u


def grid_stream(
    cell_a: np.ndarray,
    cell_b: np.ndarray,
    loads: np.ndarray,
    eids: np.ndarray,
    parts_out: np.ndarray,
) -> None:
    """Greedy load tie-break between candidate cells, in stream order.

    Mutates ``loads`` and fills ``parts_out[eids[i]]``; feeding chunks
    sequentially against shared ``loads`` reproduces the full-array pass.
    """
    a_list = cell_a.tolist()
    b_list = cell_b.tolist()
    for i in range(len(a_list)):
        a, b = a_list[i], b_list[i]
        p = a if loads[a] <= loads[b] else b
        parts_out[eids[i]] = p
        loads[p] += 1
