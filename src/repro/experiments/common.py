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
from repro.graph import datasets
from repro.graph.edgelist import Graph
from repro.metrics import format_table, summarize
from repro.metrics.report import PartitionReport
from repro.partition import PartitionAssignment
from repro.runtime import make_job, run_job

__all__ = [
    "ExperimentResult",
    "full_mode",
    "dataset_list",
    "k_values",
    "partition_graph",
    "run_partitioner",
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


def partition_graph(
    name: str, graph: Graph, k: int
) -> tuple[str, PartitionAssignment]:
    """Partition ``graph`` by table name: ``(row name, assignment)``.

    Every name runs as ``run_job(make_job(...), graph)`` — a
    ``HEP-<tau>`` name as HEP at that tau — and its row is named like
    the CLI's report (``HEP-10``, ``ReHDRF-3``, ``HDRF``, ``NE``).
    """
    tau = hep_tau_from_name(name)
    algo = name if tau is None else "HEP"
    result = run_job(make_job(algo, graph, k, tau=tau), graph)
    row = result.algorithm if result.tau is None else f"HEP-{result.tau:g}"
    return row, result.to_assignment(graph)


def run_partitioner(name: str, graph: Graph, k: int) -> PartitionReport:
    """Run one partitioner and reduce the outcome to a report row.

    The run-time covers the whole call (a job's counting and metrics
    sweeps included).  ``memory_bytes`` is the Section 4.2-style
    analytic model (see DESIGN.md for why RSS is not meaningful in
    Python), at the tau the job ran for HEP.
    """
    start = time.perf_counter()
    row, assignment = partition_graph(name, graph, k)
    elapsed = time.perf_counter() - start
    # Plain HEP names no tau; its row names the default tau it ran.
    modeled = row if name.upper() == "HEP" else name
    return summarize(
        assignment, row, elapsed, memory_model_for(modeled, graph, k)
    )


def load_dataset(name: str) -> Graph:
    """Dataset loader used by all experiments (honors ``REPRO_SCALE``)."""
    return datasets.load(name)
