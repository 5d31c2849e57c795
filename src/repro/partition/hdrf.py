"""HDRF: High-Degree Replicated First streaming partitioning.

Petroni et al. (CIKM'15); the strongest stateful streaming baseline in
the paper and the scoring function HEP uses for its streaming phase.
The partitioner passes once over the edge stream and sends each edge to
the partition with the highest :func:`~repro.partition.scoring.hdrf_scores`
value — replicating high-degree vertices first, since they are likely to
be replicated anyway.

Two degree modes, chosen by the :class:`StreamingState` passed in:

* partial degrees — the original setting: degrees are counts
  accumulated while streaming (the ``HDRF`` job's default),
* exact degrees — known upfront (HEP's streaming phase has them from
  the counting pass; ``exact_degrees=True`` on the ``HDRF`` job).

The kernel is :func:`hdrf_stream`; the standalone baseline runs it as
the registered ``HDRF`` job (:mod:`repro.stream.driver`).
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.errors import CapacityError, ConfigurationError
from repro.partition.scoring import NEG_INF, check_hdrf_params
from repro.partition.state import StreamingState

__all__ = ["hdrf_stream"]


def hdrf_stream(
    state: StreamingState,
    edges: np.ndarray,
    eids: np.ndarray,
    parts_out: np.ndarray,
    lam: float = 1.1,
    eps: float = 1.0,
) -> None:
    """Stream ``edges`` through HDRF scoring, writing assignments in place.

    This is Algorithm 4 of the paper.  It mutates ``state`` and fills
    ``parts_out[eids[i]]`` for every streamed edge, which lets HEP run it
    over just the h2h edge file with pre-seeded (informed) state.

    Each edge goes to the partition ``np.argmax`` picks from
    :func:`~repro.partition.scoring.hdrf_scores` — the first open one
    with the highest score — bit for bit, but the kernel is scalar and
    usually scores one partition per group.  The open partitions fall
    into four groups by whether ``u`` and ``v``, only ``u``, only ``v``
    or neither are replicated there.  Within a group the replication
    term is one constant, so a score is that constant plus the balance
    term, computed with ``hdrf_scores``' float operations in its order,
    and it never grows with the partition's load.  The group's first
    maximum is therefore its lowest-index partition at the group's
    minimum load (its lowest-index partition when ``lam == 0`` ties all
    loads).  Only when a lower-index partition one load up rounds to
    the same score (an extreme ``lam``) is the group scored partition
    by partition.  The edge takes the best group maximum, ties going to
    the lower index.

    Scratch space is O(len(edges) + k): the call's vertices get their
    replica columns packed into one ``int`` bitmask each, and their
    degrees and the loads become lists, with the partitions bucketed by
    load.  All of it is written back on exit, also when
    :class:`~repro.errors.CapacityError` stops the stream, so the state
    then equals that of placing edge by edge.  Raises
    :class:`~repro.errors.ConfigurationError` for a ``lam`` or ``eps``
    that :func:`~repro.partition.scoring.check_hdrf_params` rejects, and
    when ``eps`` vanishes beside equal loads (the balance term is 0/0).
    """
    check_hdrf_params(lam, eps)
    if len(edges) == 0:
        return
    k = state.k
    cap = state.capacity
    verts, ends = np.unique(np.asarray(edges).reshape(-1), return_inverse=True)
    width = (k + 7) // 8
    packed = np.packbits(state.replicas[:, verts], axis=0, bitorder="little")
    packed = packed.T.tobytes()
    masks = [
        int.from_bytes(packed[j:j + width], "little")
        for j in range(0, len(packed), width)
    ]
    degrees = state.degrees[verts].tolist()
    loads = state.loads.tolist()
    partial = state.partial_degrees
    # levels[load]: bitmask of the partitions at that load; order: the
    # distinct loads, ascending; opened: the partitions below capacity.
    levels: dict[int, int] = {}
    for p, load in enumerate(loads):
        levels[load] = levels.get(load, 0) | 1 << p
    order = sorted(levels)
    opened = sum(mask for load, mask in levels.items() if load < cap)
    minl = order[0]
    maxl = order[-1]
    denom = _balance_denominator(eps, maxl, minl)
    placed: list[int] = []
    walk = iter(ends.tolist())  # local ids, two per edge
    try:
        for a, b in zip(walk, walk):
            if partial:
                degrees[a] += 1
                degrees[b] += 1
            if not opened:
                raise CapacityError(
                    "HDRF: all partitions at capacity "
                    f"(capacity={state.capacity}, loads={loads})"
                )
            du = degrees[a]
            total = du + degrees[b]
            theta = du / total if total else 0.5
            wu = 2.0 - theta
            wv = 2.0 - (1.0 - theta)
            mu = masks[a]
            mv = masks[b]
            both = mu & mv
            best = NEG_INF
            for group, rep in (
                (both, wu + wv), (mu ^ both, wu), (mv ^ both, wv),
                (~(mu | mv), 0.0),
            ):
                group &= opened
                if not group:
                    continue
                if lam:
                    for load in order:
                        hit = group & levels[load]
                        if hit:
                            break
                    score = rep + lam * (maxl - load) / denom
                    low = hit & -hit
                    # A lower-index member one load up that rounds to the
                    # same score would win np.argmax: score them all.
                    if (group & (low - 1)
                            and rep + lam * (maxl - load - 1) / denom == score):
                        score, low = _first_max(
                            group, rep, loads, lam, maxl, denom
                        )
                else:
                    score = rep
                    low = group & -group
                q = low.bit_length() - 1
                if score > best or score == best and q < p:
                    best = score
                    p = q
            bit = 1 << p
            masks[a] |= bit
            masks[b] |= bit
            placed.append(p)
            lp = loads[p]
            loads[p] = lp + 1
            rest = levels[lp] ^ bit
            if rest:
                levels[lp] = rest
            else:
                del levels[lp]
                order.remove(lp)
            up = levels.get(lp + 1, 0)
            if not up:
                insort(order, lp + 1)
            levels[lp + 1] = up | bit
            if lp + 1 == cap:
                opened ^= bit
            if order[0] != minl or order[-1] != maxl:
                minl = order[0]
                maxl = order[-1]
                denom = _balance_denominator(eps, maxl, minl)
    finally:
        state.degrees[verts] = degrees
        state.loads[:] = loads
        packed = b"".join(mask.to_bytes(width, "little") for mask in masks)
        packed = np.frombuffer(packed, dtype=np.uint8).reshape(-1, width)
        state.replicas[:, verts] = np.unpackbits(
            packed, axis=1, count=k, bitorder="little"
        ).T
        parts_out[eids[:len(placed)]] = placed


def _first_max(
    group: int, rep: float, loads: list[int], lam: float, maxl: int,
    denom: float,
) -> tuple[float, int]:
    """Best score in ``group`` and the bit of the first partition with it."""
    best = NEG_INF
    while group:
        low = group & -group
        group ^= low
        score = rep + lam * (maxl - loads[low.bit_length() - 1]) / denom
        if score > best:
            best = score
            first = low
    return best, first


def _balance_denominator(eps: float, maxl: int, minl: int) -> float:
    """``hdrf_scores``' balance denominator ``eps + maxload - minload``."""
    denom = eps + maxl - minl
    if not denom:
        raise ConfigurationError(
            f"HDRF: eps={eps!r} vanishes beside the equal partition loads "
            f"({maxl}), so the balance term is 0/0"
        )
    return denom
