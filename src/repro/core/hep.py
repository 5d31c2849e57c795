"""HEP: the Hybrid Edge Partitioner (the paper's system, Section 3).

HEP chains two phases:

1. **NE++** partitions every edge incident to at least one low-degree
   vertex in memory, on the pruned CSR (:mod:`repro.core.ne_plus_plus`).
2. **Informed stateful streaming** partitions the high/high edge file
   with HDRF scoring (Algorithm 4), with its state — replica sets,
   exact degrees, partition loads — seeded from phase one
   (:meth:`repro.partition.state.StreamingState.informed`).  This is what
   overcomes the "uninformed assignment problem" of pure streaming.

One pipeline runs both, in memory or out of core:
``run_job(make_job("HEP", graph_or_path, k, tau=...))``
(:mod:`repro.runtime`).  This module holds what its stages and the
table names share: the phase-two capacity rule, the phase breakdown
and the ``HEP-<tau>`` name parser.

The degree threshold factor ``tau`` is the memory knob: the paper's
configurations HEP-100, HEP-10 and HEP-1 are the table names
``HEP-<tau>`` with 100, 10 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.partition.base import capacity_bound

__all__ = ["HepPhaseBreakdown", "hep_tau_from_name", "phase_two_capacity"]


def hep_tau_from_name(name: str) -> float | None:
    """The tau a ``HEP-<tau>`` table name carries; ``None`` for any other name.

    The inverse of a HEP row's name in the experiment tables (``HEP-10``,
    ``HEP-inf``; case-insensitive).  Plain ``HEP`` is not a ``HEP-<tau>``
    name: it leaves tau to the caller's default or budget.
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
    will expose it).  The job's phase two and every phase two rebuilt
    from the kernels (the multi-worker oracle, the uninformed ablation)
    must use this exact rule: their bit-identity depends on it.
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
