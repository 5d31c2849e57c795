"""The paper's primary contribution: HEP, NE++, tau selection, memory model."""

from repro.core.hep import HepPhaseBreakdown
from repro.core.incremental import IncrementalHep
from repro.core.memory_model import (
    hep_memory_bytes,
    memory_model_for,
    ne_memory_bytes,
    ne_plus_plus_memory_bytes,
    pruned_column_entries,
)
from repro.core.ne_plus_plus import (
    NePlusPlusPartitioner,
    NePlusPlusResult,
    NePlusPlusStats,
    run_ne_plus_plus,
)
from repro.core.tau import (
    DEFAULT_TAU_GRID,
    TauProfile,
    precompute_profile,
    select_tau,
)

__all__ = [
    "IncrementalHep",
    "HepPhaseBreakdown",
    "NePlusPlusPartitioner",
    "NePlusPlusResult",
    "NePlusPlusStats",
    "run_ne_plus_plus",
    "select_tau",
    "precompute_profile",
    "TauProfile",
    "DEFAULT_TAU_GRID",
    "hep_memory_bytes",
    "ne_memory_bytes",
    "ne_plus_plus_memory_bytes",
    "pruned_column_entries",
    "memory_model_for",
]
