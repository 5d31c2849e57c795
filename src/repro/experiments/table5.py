"""Table 5: vertex balancing of HEP (std / avg replicas per partition).

The hidden strength of hybrid partitioning: the streaming phase balances
vertex replicas better than neighborhood expansion, so lower ``tau``
improves vertex balance — which Table 4 shows matters on graphs that all
partitioners handle well.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    load_dataset,
    partition_graph,
)
from repro.experiments.paper_reference import SHAPES, TABLE5_VERTEX_BALANCE
from repro.metrics import vertex_balance

__all__ = ["run"]

_GRAPHS = ("OK", "IT", "TW")
_TAUS = (100.0, 10.0, 1.0)


def run(
    graphs: tuple[str, ...] = _GRAPHS,
    taus: tuple[float, ...] = _TAUS,
    k: int = 32,
) -> ExperimentResult:
    rows: list[dict[str, object]] = []
    for tau in taus:
        name = f"HEP-{tau:g}"
        row: dict[str, object] = {"partitioner": name}
        for graph_name in graphs:
            graph = load_dataset(graph_name)
            _, assignment = partition_graph(name, graph, k)
            row[graph_name] = round(vertex_balance(assignment), 3)
            paper = TABLE5_VERTEX_BALANCE.get(name, {}).get(graph_name)
            row[f"paper_{graph_name}"] = paper if paper is not None else "-"
        rows.append(row)
    result = ExperimentResult(
        experiment_id="table5",
        title=f"HEP vertex balancing, std/avg replicas per partition (k={k})",
        rows=rows,
        paper_shape=SHAPES["table5"],
    )
    for graph_name in graphs:
        values = [float(r[graph_name]) for r in rows]
        # Tolerant monotonicity: at laptop scale tau=100 and tau=10 prune
        # nearly the same vertex set, so allow noise-level inversions; the
        # load-bearing effect is the drop at the streaming-heavy end.
        eases = all(b <= a * 1.1 for a, b in zip(values, values[1:]))
        big_drop = values[-1] < values[0]
        result.notes.append(
            f"{graph_name}: balance improves as tau falls (10% tolerance)="
            f"{eases}; tau=1 clearly better than tau=100={big_drop}"
        )
    return result
