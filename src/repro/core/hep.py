"""HEP: the Hybrid Edge Partitioner (the paper's system, Section 3).

HEP chains the two phases this library implements:

1. **NE++** partitions every edge incident to at least one low-degree
   vertex in memory, on the pruned CSR (:mod:`repro.core.ne_plus_plus`).
2. **Informed stateful streaming** partitions the high/high edge file
   with HDRF scoring (Algorithm 4), with its state — replica sets,
   exact degrees, partition loads — seeded from phase one
   (:meth:`repro.partition.state.StreamingState.informed`).  This is what
   overcomes the "uninformed assignment problem" of pure streaming.

The degree threshold factor ``tau`` is the memory knob: the paper's
configurations HEP-100, HEP-10 and HEP-1 are ``HepPartitioner(tau=...)``
with 100, 10 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ne_plus_plus import NePlusPlusResult, run_ne_plus_plus
from repro.errors import CapacityError, ConfigurationError
from repro.graph.csr import _grouped_positions
from repro.graph.edgelist import Graph
from repro.partition.base import PartitionAssignment, Partitioner, capacity_bound
from repro.partition.hdrf import hdrf_stream
from repro.partition.random_stream import random_stream
from repro.partition.scoring import greedy_choose
from repro.partition.state import StreamingState

__all__ = [
    "HepPartitioner", "HepPhaseBreakdown", "hep_tau_from_name",
    "phase_two_capacity",
]


def hep_tau_from_name(name: str) -> float | None:
    """The tau a ``HEP-<tau>`` table name carries; ``None`` for any other name.

    The inverse of :attr:`HepPartitioner.name` (``HEP-10``, ``HEP-inf``;
    case-insensitive).  Plain ``HEP`` is not a ``HEP-<tau>`` name: it
    leaves tau to the caller's default or budget.
    """
    head, dash, suffix = name.partition("-")
    if not dash or head.upper() != "HEP":
        return None
    try:
        return float(suffix)
    except ValueError:
        raise ConfigurationError(
            f"{name!r}: a HEP-<tau> name needs a number or inf after "
            f"'HEP-' (HEP-10, HEP-1.5, HEP-inf)"
        ) from None


def phase_two_capacity(
    num_edges: int, k: int, alpha: float, loads: np.ndarray
) -> int:
    """Streaming-phase capacity bound shared by in-memory and out-of-core HEP.

    The paper's bound ``alpha * |E| / k`` — but loads carried over from
    phase one may already be at that bound on pathological inputs, so the
    bound grows just enough to keep the stream feasible (reported alpha
    will expose it).  Both HEP drivers must use this exact rule: the
    out-of-core ≡ in-memory equivalence property depends on it.
    """
    capacity = capacity_bound(num_edges, k, alpha)
    headroom = int(loads.max())
    return max(capacity, headroom + 1)


@dataclass(frozen=True)
class HepPhaseBreakdown:
    """Where the edges went: diagnostics for Figure 9's ratio panels."""

    num_edges: int
    num_h2h_edges: int
    num_inmemory_edges: int
    cleanup_removed_fraction: float
    spilled_edges: int

    @property
    def h2h_fraction(self) -> float:
        """Fraction of all edges classified high/high (streamed)."""
        return self.num_h2h_edges / self.num_edges if self.num_edges else 0.0

    @property
    def rest_fraction(self) -> float:
        """Fraction of all edges partitioned in memory by NE++."""
        return 1.0 - self.h2h_fraction


class HepPartitioner(Partitioner):
    """Hybrid Edge Partitioner.

    Parameters
    ----------
    tau:
        Degree threshold factor separating ``V_h`` from ``V_l``.  Smaller
        means more streaming and less memory.  ``inf`` degenerates to
        pure NE++.
    alpha:
        Balance slack for the *streaming* phase (the in-memory phase uses
        the paper's adapted bound ``|E \\ E_h2h| / k``).
    lam, eps:
        HDRF scoring parameters for phase two.
    streaming:
        ``"hdrf"`` (the paper's choice), ``"greedy"`` (the alternative
        Section 3.3 mentions: "the streaming phase of HEP could also
        employ other stateful streaming edge partitioning algorithms,
        such as Greedy"), or ``"random"`` — the latter turns HEP into
        the NE++-side half of Section 5.4's ablation.
    informed:
        With ``False``, phase two starts from *empty* streaming state
        instead of the NE++ hand-over — the ablation isolating the value
        of Section 3.3's informed streaming (loads still carry over so
        the balance constraint stays sound).

    The disk spill, the buffered scoring window and the byte budget are
    knobs of the job pipeline: ``run_job(make_job("HEP", ...))``.
    """

    def __init__(
        self,
        tau: float = 10.0,
        alpha: float = 1.0,
        lam: float = 1.1,
        eps: float = 1.0,
        streaming: str = "hdrf",
        informed: bool = True,
        seed: int = 0,
    ) -> None:
        if not tau > 0:
            raise ConfigurationError(f"tau must be positive, got {tau}")
        if streaming not in ("hdrf", "greedy", "random"):
            raise ConfigurationError(f"unknown streaming strategy {streaming!r}")
        self.tau = tau
        self.alpha = alpha
        self.lam = lam
        self.eps = eps
        self.streaming = streaming
        self.informed = informed
        self.seed = seed
        self.last_breakdown: HepPhaseBreakdown | None = None
        label = "inf" if np.isinf(tau) else f"{tau:g}"
        self.name = f"HEP-{label}"

    def partition(self, graph: Graph, k: int) -> PartitionAssignment:
        """Run both HEP phases: NE++ then informed HDRF over h2h edges."""
        self._require_k(graph, k)
        phase_one = run_ne_plus_plus(graph, k, tau=self.tau)
        parts = self._stream_h2h(graph, k, phase_one)
        self.last_breakdown = HepPhaseBreakdown(
            num_edges=graph.num_edges,
            num_h2h_edges=phase_one.h2h.num_edges,
            num_inmemory_edges=phase_one.num_inmemory_edges,
            cleanup_removed_fraction=phase_one.stats.cleanup_removed_fraction,
            spilled_edges=phase_one.stats.spilled_edges,
        )
        return PartitionAssignment(graph, k, parts)

    def _stream_h2h(
        self, graph: Graph, k: int, phase_one: NePlusPlusResult
    ) -> np.ndarray:
        """Phase two: stream the h2h edge file through informed scoring."""
        parts = phase_one.parts
        h2h = phase_one.h2h
        if h2h.num_edges == 0:
            return parts
        capacity = phase_two_capacity(graph.num_edges, k, self.alpha, phase_one.loads)
        if self.streaming == "hdrf":
            # The uninformed ablation forgets the replica state but keeps
            # the loads (the capacity constraint must see them).
            replicas = (
                phase_one.secondary if self.informed
                else np.zeros_like(phase_one.secondary)
            )
            state = StreamingState.informed(
                graph, k, capacity, replicas=replicas, loads=phase_one.loads
            )
            hdrf_stream(
                state, h2h.pairs, h2h.eids, parts, lam=self.lam, eps=self.eps
            )
        elif self.streaming == "greedy":
            state = StreamingState.informed(
                graph, k, capacity,
                replicas=phase_one.secondary,
                loads=phase_one.loads,
            )
            self._greedy_stream(graph, state, h2h, parts)
        else:
            random_stream(
                h2h.num_edges,
                h2h.eids,
                parts,
                k,
                capacity,
                loads=phase_one.loads.copy(),
                seed=self.seed,
            )
        return parts

    @staticmethod
    def _greedy_stream(graph, state: StreamingState, h2h, parts: np.ndarray) -> None:
        """PowerGraph-greedy placement over the h2h stream (informed).

        The per-edge ``remaining`` degree bookkeeping of the original
        loop is batched: ``remaining[x]`` at edge ``i`` equals ``d(x)``
        minus the number of times ``x`` appeared in edges ``0..i-1``, so
        one stable occurrence-rank pass over the flattened endpoint
        stream precomputes every lookup.
        """
        if h2h.num_edges == 0:
            return
        flat = h2h.pairs.ravel()
        prior = _grouped_positions(flat, np.zeros(graph.num_vertices, dtype=np.int64))
        remaining = graph.degrees[flat] - prior
        rem_u, rem_v = remaining[0::2], remaining[1::2]
        pairs, eids = h2h.pairs, h2h.eids
        for i in range(h2h.num_edges):
            u = int(pairs[i, 0])
            v = int(pairs[i, 1])
            p = greedy_choose(state, u, v, int(rem_u[i]), int(rem_v[i]))
            if p < 0:
                raise CapacityError("HEP/greedy: all partitions at capacity")
            state.place(u, v, p)
            parts[eids[i]] = p
