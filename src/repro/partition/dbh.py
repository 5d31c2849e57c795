"""DBH: Degree-Based Hashing (stateless streaming).

Xie et al. (NIPS'14).  Each edge is assigned by hashing the id of its
*lower-degree* endpoint, which concentrates the cut on high-degree
vertices — the ones that power-law theory says will be replicated
anyway.  ``Θ(|E|)`` time, no state beyond the degree array; the fastest
baseline in the paper (and the one that wins Table 4's short jobs).

The whole pass is vectorized: ties and hashing are computed for all
edges at once.  Capacity overflow (rare, since hashing is near-balanced)
is repaired by moving surplus edges to underfull partitions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError

__all__ = ["hash_vertices", "dbh_assign", "repair_overflow"]

_KNUTH = np.uint64(2654435761)
_MASK = np.uint64(0xFFFFFFFF)


def hash_vertices(ids: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic 32-bit multiplicative hash of vertex ids."""
    x = ids.astype(np.uint64) + np.uint64(salt)
    x = (x * _KNUTH) & _MASK
    x ^= x >> np.uint64(16)
    x = (x * np.uint64(0x45D9F3B)) & _MASK
    x ^= x >> np.uint64(16)
    return x


def dbh_assign(
    pairs: np.ndarray, degrees: np.ndarray, k: int, salt: int = 0
) -> np.ndarray:
    """Degree-based-hashing partition of a block of ``(u, v)`` pairs.

    Pure elementwise function of each edge and the (exact) degree array,
    so a chunked pass over an edge stream produces exactly the same
    assignments as one vectorized pass over the full edge list — which
    is how the out-of-core driver reuses it.
    """
    u, v = pairs[:, 0], pairs[:, 1]
    du, dv = degrees[u], degrees[v]
    # Hash the endpoint with the smaller degree; break ties by id so
    # the choice is deterministic across runs.
    pick_u = (du < dv) | ((du == dv) & (u < v))
    chosen = np.where(pick_u, u, v)
    return (hash_vertices(chosen, salt) % np.uint64(k)).astype(np.int32)


def repair_overflow(parts: np.ndarray, k: int, capacity: int) -> np.ndarray:
    """Move surplus edges from overfull to underfull partitions.

    Hashing occasionally lands a few edges over the hard bound; the repair
    keeps the assignment valid without changing its character.  Each
    overfull partition keeps its first ``capacity`` edges (by edge id);
    the surplus, in ascending (partition, edge id) order, fills the
    partitions with room in ascending order, each up to ``capacity``.
    Raises :class:`~repro.errors.CapacityError` when the room left
    cannot hold the surplus.
    """
    sizes = np.bincount(parts, minlength=k)
    over = np.flatnonzero(sizes > capacity)
    if over.size == 0:
        return parts
    space = capacity - sizes
    open_parts = np.flatnonzero(space > 0)
    targets = np.repeat(open_parts, space[open_parts])
    surplus = np.concatenate(
        [np.flatnonzero(parts == p)[capacity:] for p in over]
    )
    if surplus.size > targets.size:
        raise CapacityError(
            f"{surplus.size} edges over capacity {capacity} but only "
            f"{targets.size} free slots in {k} partitions"
        )
    parts = parts.copy()
    parts[surplus] = targets[: surplus.size]
    return parts
