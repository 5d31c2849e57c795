"""Result reporting: per-run summaries and plain-text tables.

The experiment harness and the CLI both print the same row format, so a
single report type keeps every table in the repository consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.balance import edge_balance, vertex_balance
from repro.metrics.replication import replication_factor
from repro.partition.base import PartitionAssignment

__all__ = ["PartitionReport", "summarize", "format_table"]


@dataclass(frozen=True)
class PartitionReport:
    """One partitioning run reduced to the paper's reported quantities."""

    partitioner: str
    graph: str
    k: int
    replication_factor: float
    alpha: float
    vertex_balance: float
    runtime_s: float
    memory_bytes: int | None = None

    def row(self) -> dict[str, object]:
        """Render the report as one table row (rounded display values)."""
        row: dict[str, object] = {
            "partitioner": self.partitioner,
            "graph": self.graph,
            "k": self.k,
            "RF": round(self.replication_factor, 3),
            "alpha": round(self.alpha, 3),
            "vbal": round(self.vertex_balance, 3),
            "time_s": round(self.runtime_s, 3),
        }
        if self.memory_bytes is not None:
            row["mem_MiB"] = round(self.memory_bytes / 2**20, 2)
        return row


def summarize(
    assignment: PartitionAssignment,
    partitioner: str,
    runtime_s: float,
    memory_bytes: int | None = None,
) -> PartitionReport:
    """Reduce one timed partitioning run to a :class:`PartitionReport`."""
    return PartitionReport(
        partitioner=partitioner,
        graph=assignment.graph.name,
        k=assignment.k,
        replication_factor=replication_factor(assignment),
        alpha=edge_balance(assignment),
        vertex_balance=vertex_balance(assignment),
        runtime_s=runtime_s,
        memory_bytes=memory_bytes,
    )


def format_table(rows: list[dict[str, object]], title: str = "") -> str:
    """Render dict rows as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(rows[0].keys())
    for row in rows[1:]:
        for key in row:
            if key not in columns:
                columns.append(key)
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)
