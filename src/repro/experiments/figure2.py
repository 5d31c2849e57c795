"""Figure 2: vertex degree vs. replication factor (HDRF and NE, k=32).

The motivating measurement of the paper: both a streaming and an
in-memory partitioner replicate high-degree vertices far more than
low-degree ones, while most vertices are low-degree — which is why HEP
can afford to push high/high edges to the streaming phase.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    load_dataset,
    partition_graph,
)
from repro.experiments.paper_reference import SHAPES
from repro.graph.stats import bucket_labels
from repro.metrics import rf_by_degree_bucket

__all__ = ["run"]


def run(graphs: tuple[str, ...] = ("LJ", "WI"), k: int = 32) -> ExperimentResult:
    rows: list[dict[str, object]] = []
    for name in graphs:
        graph = load_dataset(name)
        for label in ("HDRF", "NE"):
            _, assignment = partition_graph(label, graph, k)
            fractions, mean_rf, buckets = rf_by_degree_bucket(assignment)
            labels = bucket_labels(len(buckets))
            for b in buckets.tolist():
                if fractions[b] == 0:
                    continue
                rows.append(
                    {
                        "graph": name,
                        "partitioner": label,
                        "degree_range": labels[b],
                        "vertex_fraction": round(float(fractions[b]), 4),
                        "mean_RF": round(float(mean_rf[b]), 3),
                    }
                )
    result = ExperimentResult(
        experiment_id="figure2",
        title=f"Degree vs. replication factor (k={k})",
        rows=rows,
        paper_shape=SHAPES["figure2"],
    )
    _append_shape_notes(result)
    return result


def _append_shape_notes(result: ExperimentResult) -> None:
    """Check the two claims of the figure on the measured rows."""
    by_key: dict[tuple[str, str], list[dict[str, object]]] = {}
    for row in result.rows:
        by_key.setdefault((str(row["graph"]), str(row["partitioner"])), []).append(row)
    for (graph, partitioner), rows in by_key.items():
        rf_values = [float(r["mean_RF"]) for r in rows]
        growing = all(b >= a * 0.8 for a, b in zip(rf_values, rf_values[1:]))
        low_bucket_share = float(rows[0]["vertex_fraction"])
        result.notes.append(
            f"{graph}/{partitioner}: RF rises with degree={growing}, "
            f"lowest-bucket vertex share={low_bucket_share:.2f}"
        )
