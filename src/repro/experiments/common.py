"""Shared machinery of the experiment harness.

Every figure/table module exposes ``run(...) -> ExperimentResult`` and is
invoked both by the benchmark suite (``benchmarks/bench_*.py``) and the
CLI (``python -m repro experiment <id>``).  The experiments run on the
Table 3 stand-in datasets at ``REPRO_SCALE`` (default 1.0); set
``REPRO_BENCH_FULL=1`` to expand sweeps to the paper's full grid.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.core import memory_model_for
from repro.core.hep import hep_tau_from_name
from repro.errors import ConfigurationError
from repro.graph import datasets
from repro.graph.edgelist import Graph
from repro.metrics import format_table, summarize
from repro.metrics.report import PartitionReport
from repro.partition import (
    AdwisePartitioner,
    DbhPartitioner,
    DnePartitioner,
    GreedyPartitioner,
    GridPartitioner,
    HdrfPartitioner,
    MetisPartitioner,
    NePartitioner,
    Partitioner,
    RandomStreamPartitioner,
    RestreamingHdrfPartitioner,
    SnePartitioner,
)
from repro.core import HepPartitioner, NePlusPlusPartitioner

__all__ = [
    "ExperimentResult",
    "full_mode",
    "dataset_list",
    "k_values",
    "make_partitioner",
    "run_partitioner",
    "PARTITIONER_FACTORIES",
]


@dataclass
class ExperimentResult:
    """Formatted outcome of one table/figure reproduction."""

    experiment_id: str
    title: str
    rows: list[dict[str, object]]
    paper_shape: str
    notes: list[str] = field(default_factory=list)

    def format(self) -> str:
        parts = [
            format_table(self.rows, title=f"[{self.experiment_id}] {self.title}"),
            f"paper shape: {self.paper_shape}",
        ]
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)


def full_mode() -> bool:
    """True when ``REPRO_BENCH_FULL=1`` — run the paper's full sweep."""
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


def dataset_list(default: tuple[str, ...], full: tuple[str, ...]) -> list[str]:
    return list(full if full_mode() else default)


def k_values() -> list[int]:
    """Paper's partition counts; trimmed by default for pure-Python speed."""
    return [4, 32, 128, 256] if full_mode() else [4, 32]


#: factory per table name; HEP names carry their tau
PARTITIONER_FACTORIES: dict[str, type | None] = {
    "HDRF": HdrfPartitioner,
    "Greedy": GreedyPartitioner,
    "DBH": DbhPartitioner,
    "Grid": GridPartitioner,
    "ADWISE": AdwisePartitioner,
    "Random": RandomStreamPartitioner,
    "Restreaming": RestreamingHdrfPartitioner,
    "NE": NePartitioner,
    "NE++": NePlusPlusPartitioner,
    "SNE": SnePartitioner,
    "DNE": DnePartitioner,
    "METIS": MetisPartitioner,
}


def make_partitioner(name: str) -> Partitioner:
    """Instantiate a partitioner from its table name (``HEP-10`` etc.)."""
    tau = hep_tau_from_name(name)
    if tau is not None:
        return HepPartitioner(tau=tau)
    try:
        factory = PARTITIONER_FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown partitioner {name!r}; known: "
            f"{', '.join(sorted(PARTITIONER_FACTORIES))} and HEP-<tau>"
        ) from None
    return factory()


def run_partitioner(name: str, graph: Graph, k: int) -> PartitionReport:
    """Run one partitioner and reduce the outcome to a report row.

    ``memory_bytes`` is the Section 4.2-style analytic model (see
    DESIGN.md for why RSS is not meaningful in Python).
    """
    partitioner = make_partitioner(name)
    start = time.perf_counter()
    assignment = partitioner.partition(graph, k)
    elapsed = time.perf_counter() - start
    from repro.partition.base import TimedResult

    result = TimedResult(
        assignment,
        elapsed,
        partitioner.name,
        memory_bytes=memory_model_for(partitioner.name, graph, k),
    )
    return summarize(result)


def load_dataset(name: str) -> Graph:
    """Dataset loader used by all experiments (honors ``REPRO_SCALE``)."""
    return datasets.load(name)
