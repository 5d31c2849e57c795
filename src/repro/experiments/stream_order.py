"""Stream-order sensitivity: streaming partitioners vs HEP.

Streaming quality depends on edge arrival order (the uninformed
assignment problem); HEP's in-memory phase sees the whole pruned graph
at once and is order-free.  This experiment partitions the same graph
under five orderings and reports the spread each partitioner exhibits —
the robustness argument behind hybrid partitioning.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    load_dataset,
    partition_graph,
)
from repro.graph.ordering import ORDERINGS, edge_order, reorder_edges
from repro.metrics import replication_factor

__all__ = ["run"]


def run(graph_name: str = "OK", k: int = 32) -> ExperimentResult:
    graph = load_dataset(graph_name)
    partitioners = ("HDRF", "Greedy", "HEP-1")
    rows: list[dict[str, object]] = []
    spread: dict[str, list[float]] = {name: [] for name in partitioners}
    for strategy in ORDERINGS:
        permutation = edge_order(graph, strategy, seed=7)
        reordered = reorder_edges(graph, permutation)
        row: dict[str, object] = {"ordering": strategy}
        for name in partitioners:
            _, assignment = partition_graph(name, reordered, k)
            rf = replication_factor(assignment)
            row[name] = round(rf, 3)
            spread[name].append(rf)
        rows.append(row)
    result = ExperimentResult(
        experiment_id="stream_order",
        title=f"Replication factor vs edge-stream ordering ({graph_name}, k={k})",
        rows=rows,
        paper_shape="streaming partitioners are sensitive to arrival order"
        " (worst under hubs-last); HEP's in-memory phase is order-free",
    )
    for name, values in spread.items():
        lo, hi = min(values), max(values)
        result.notes.append(
            f"{name}: RF range [{lo:.3f}, {hi:.3f}], spread {hi / lo:.3f}x"
        )
    hep_spread = max(spread["HEP-1"]) / min(spread["HEP-1"])
    hdrf_spread = max(spread["HDRF"]) / min(spread["HDRF"])
    result.notes.append(
        f"HEP less order-sensitive than HDRF: {hep_spread < hdrf_spread}"
    )
    return result
