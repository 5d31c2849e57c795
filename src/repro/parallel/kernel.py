"""Shared BSP kernels: snapshot scoring, serialized placement, delta merge.

:func:`~repro.parallel.bsp_streaming.bsp_hdrf_stream` executes the BSP
schedule in one process; :mod:`repro.stream.workers` executes the *same*
schedule on real OS processes.  Both paths must be bit-identical, so the
numerical kernels live here and are imported by both — a score is never
computed two different ways.

The kernels mirror the scalar reference (`hdrf_scores` on a frozen
snapshot) operation for operation, so the vectorized batch results are
bitwise equal to a per-edge loop:

* :func:`score_batch_on_snapshot` — HDRF scores of a batch of edges
  against an immutable replica/load snapshot (no capacity mask; that is
  live state and belongs to the serialized owner).  It is the
  composition of :func:`batch_coefficients` (the degree-only half,
  which a worker computes for its next batch before it blocks at the
  barrier) and :func:`score_on_snapshot` (the half that reads the
  snapshot),
* :func:`superstep_is_safe` — the deterministic fast-path predicate: if
  no partition can reach capacity within one superstep, the capacity
  mask never binds and placements are pure argmaxes over the snapshot
  scores,
* :func:`place_batch_serialized` — the slow path: per-edge argmax under
  the *live* capacity mask, mutating the live state edge by edge (what a
  serialized partition owner does near the balance bound),
* :func:`apply_batch` / :func:`apply_delta` — the barrier merge:
  replica marks OR-ed, loads summed (order-independent, so a merged
  delta can be applied vectorized — the shared snapshot buffers take
  deltas this way at commit and catch-up).

Stream construction is also shared, so the in-process oracle and the
multi-process driver agree on who owns which edges:
:func:`round_robin_streams` (the classic strided split),
:func:`contiguous_streams` (one contiguous range per worker, the virtual
sharding of a flat edge file), and :func:`shard_round_robin_streams`
(shards dealt round-robin, each worker streaming its shards in manifest
order).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.partition.state import StreamingState

__all__ = [
    "batch_coefficients",
    "score_on_snapshot",
    "score_batch_on_snapshot",
    "superstep_is_safe",
    "place_batch_serialized",
    "apply_batch",
    "apply_delta",
    "round_robin_streams",
    "contiguous_streams",
    "shard_round_robin_streams",
]


def batch_coefficients(
    degrees: np.ndarray, us: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The degree-only half of HDRF scoring: ``(coeff_u, coeff_v)``.

    ``coeff_u[i] = 2 - theta_u`` weighs a replica of ``us[i]``; degrees
    never change during a stream, so the coefficients of a batch can be
    computed before its snapshot exists.
    """
    du = degrees[us]
    dv = degrees[vs]
    total = du + dv
    # Mirror the scalar reference: theta_u = du / total if total else 0.5.
    safe_total = np.where(total > 0, total, 1)
    theta_u = np.where(total > 0, du / safe_total, 0.5)
    theta_v = 1.0 - theta_u
    coeff_u = 2.0 - theta_u
    coeff_v = 2.0 - theta_v
    return coeff_u, coeff_v


def score_on_snapshot(
    replicas: np.ndarray,
    loads: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    coeff_u: np.ndarray,
    coeff_v: np.ndarray,
    lam: float,
    eps: float,
) -> np.ndarray:
    """The snapshot half of HDRF scoring — ``(b, k)`` floats.

    The replica gather times :func:`batch_coefficients`' coefficients,
    plus the balance term of the snapshot ``loads``.
    """
    scores = (
        replicas[:, us].T * coeff_u[:, None]
        + replicas[:, vs].T * coeff_v[:, None]
    )
    maxload = loads.max()
    minload = loads.min()
    bal = lam * (maxload - loads) / (eps + maxload - minload)
    return scores + bal[None, :]


def score_batch_on_snapshot(
    replicas: np.ndarray,
    loads: np.ndarray,
    degrees: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    lam: float,
    eps: float,
) -> np.ndarray:
    """HDRF scores of a batch against a frozen snapshot — ``(b, k)`` floats.

    ``replicas``/``loads`` are the superstep snapshot, ``degrees`` the
    exact degree array.  No capacity mask is applied: within a BSP
    superstep the hard balance bound is enforced against *live* loads by
    the serialized owner (:func:`place_batch_serialized`), never against
    the snapshot.  Each row is bitwise equal to the scalar
    ``hdrf_scores`` reference evaluated on the same snapshot.
    """
    coeff_u, coeff_v = batch_coefficients(degrees, us, vs)
    return score_on_snapshot(
        replicas, loads, us, vs, coeff_u, coeff_v, lam, eps
    )


def superstep_is_safe(
    loads: np.ndarray, workers: int, batch: int, capacity: int
) -> bool:
    """True when no partition can hit capacity within one superstep.

    At most ``workers * batch`` edges are placed per superstep, and
    loads only grow — so if even the heaviest partition cannot reach
    ``capacity``, the live capacity mask is all-open for every placement
    and the serialized loop collapses to independent argmaxes.  The
    predicate reads only superstep-start loads (== the snapshot), so
    every worker and the coordinator compute the same value without
    communicating.
    """
    return bool(int(loads.max()) + workers * batch <= capacity)


def place_batch_serialized(
    state: StreamingState,
    us: np.ndarray,
    vs: np.ndarray,
    scores: np.ndarray,
) -> np.ndarray:
    """Place one worker's batch edge by edge under the live capacity mask.

    ``scores`` are the snapshot scores from
    :func:`score_batch_on_snapshot`; the mask uses the *live* loads (a
    real system enforces its hard bound at the serialized partition
    owner, not the snapshot).  Mutates ``state`` and returns the chosen
    partition per edge.  Raises :class:`~repro.errors.CapacityError`
    when every partition is full.
    """
    ps = np.empty(us.shape[0], dtype=np.int64)
    for i in range(us.shape[0]):
        masked = np.where(
            state.loads < state.capacity, scores[i], -np.inf
        )
        p = int(np.argmax(masked))
        if masked[p] == -np.inf:
            raise CapacityError("BSP stream: all partitions full")
        state.place(int(us[i]), int(vs[i]), p)
        ps[i] = p
    return ps


def apply_batch(
    state: StreamingState,
    us: np.ndarray,
    vs: np.ndarray,
    ps: np.ndarray,
) -> None:
    """Apply a batch of placements to live state, vectorized.

    Equivalent to calling ``state.place`` per edge: replica marks OR
    together and loads sum, so order does not matter and fancy indexing
    is exact.
    """
    state.replicas[ps, us] = True
    state.replicas[ps, vs] = True
    state.loads += np.bincount(ps, minlength=state.k)


def apply_delta(
    replicas: np.ndarray,
    loads: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    ps: np.ndarray,
) -> None:
    """Merge one superstep's placements into a snapshot buffer (the barrier).

    :func:`apply_batch` on bare arrays: the shared-memory snapshot
    buffers (:class:`~repro.parallel.shm.SharedState`) are plain arrays,
    not a :class:`~repro.partition.state.StreamingState`.
    """
    replicas[ps, us] = True
    replicas[ps, vs] = True
    loads += np.bincount(ps, minlength=loads.shape[0])


def _check_workers(workers: int) -> int:
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def round_robin_streams(m: int, workers: int) -> list[np.ndarray]:
    """Strided edge ownership: worker ``w`` owns edges ``w, w+W, ...``.

    The split a round-robin distributed ingest layer produces, and the
    schedule :func:`~repro.parallel.bsp_streaming.bsp_hdrf_stream` uses
    by default.
    """
    workers = _check_workers(workers)
    return [np.arange(w, m, workers) for w in range(workers)]


def contiguous_streams(m: int, workers: int) -> list[np.ndarray]:
    """One contiguous, near-equal edge range per worker.

    The virtual sharding of a flat binary edge file: the same
    ``base + 1``-then-``base`` split :class:`~repro.stream.shard.
    ShardWriter` uses for shard boundaries.
    """
    workers = _check_workers(workers)
    base, extra = divmod(int(m), workers)
    streams = []
    start = 0
    for w in range(workers):
        count = base + (1 if w < extra else 0)
        streams.append(np.arange(start, start + count))
        start += count
    return streams


def shard_round_robin_streams(
    shard_edges: "tuple[int, ...] | list[int]", workers: int
) -> list[np.ndarray]:
    """Shards dealt round-robin: worker ``w`` owns shards ``w, w+W, ...``.

    Each worker streams its shards in manifest order; edge ids are the
    global stream positions, so a stream is the concatenation of the
    owned shards' contiguous eid ranges.  One shard is read by exactly
    one worker — every byte of the manifest is read once.
    """
    workers = _check_workers(workers)
    offsets = np.concatenate(
        [[0], np.cumsum(np.asarray(shard_edges, dtype=np.int64))]
    )
    streams = []
    for w in range(workers):
        ranges = [
            np.arange(offsets[i], offsets[i + 1])
            for i in range(w, len(shard_edges), workers)
        ]
        streams.append(
            np.concatenate(ranges) if ranges else np.empty(0, dtype=np.int64)
        )
    return streams
