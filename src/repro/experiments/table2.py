"""Table 2: run-time of the tau-precompute (Section 4.4).

The paper's point is that projecting HEP's memory footprint over a grid
of ``tau`` values is *negligible* next to partitioning itself, so tuning
``tau`` to a memory budget is practical.  We measure the same ratio.
"""

from __future__ import annotations

import time

from repro.core import precompute_profile
from repro.experiments.common import (
    ExperimentResult,
    dataset_list,
    load_dataset,
    partition_graph,
)
from repro.experiments.paper_reference import TABLE2_PRECOMPUTE_S

__all__ = ["run"]

_DEFAULT = ("OK", "IT", "TW")
_FULL = ("OK", "IT", "TW", "FR", "UK", "GSH", "WDC")


def run(graphs: tuple[str, ...] | None = None, k: int = 32) -> ExperimentResult:
    names = list(graphs) if graphs else dataset_list(_DEFAULT, _FULL)
    rows: list[dict[str, object]] = []
    for name in names:
        graph = load_dataset(name)
        profile = precompute_profile(graph, k)
        start = time.perf_counter()
        partition_graph("HEP-10", graph, k)
        partition_time = time.perf_counter() - start
        rows.append(
            {
                "graph": name,
                "precompute_s": round(profile.precompute_seconds, 4),
                "partition_s": round(partition_time, 3),
                "ratio": round(profile.precompute_seconds / max(partition_time, 1e-9), 4),
                "paper_precompute_s": TABLE2_PRECOMPUTE_S.get(name, "-"),
            }
        )
    result = ExperimentResult(
        experiment_id="table2",
        title="tau-precompute run-time vs partitioning run-time",
        rows=rows,
        paper_shape="precompute negligible relative to partitioning",
    )
    ok = all(float(r["ratio"]) < 0.5 for r in rows)
    result.notes.append(f"precompute < 50% of partitioning on every graph: {ok}")
    return result
