"""Out-of-core reruns of the paper's streaming comparison (Tables 2-4).

The paper's core claim is comparative: HEP's quality/memory trade-off
versus the streaming baselines.  PR 1 made HEP's side honest (chunked
reading, disk spill, a real byte budget); this experiment makes the
*baselines'* side honest too.  Every streaming baseline is run twice on
the same dataset:

* **in-memory** — the same job on the loaded Graph, full edge list
  resident (:func:`~repro.experiments.common.partition_graph`), and
* **out-of-core** — from a binary edge *file* through the runtime
  layer (:func:`~repro.runtime.spec.make_job` →
  :func:`~repro.runtime.api.run_job`), with only ``O(n + k)`` state
  plus one chunk in memory,

and the table reports both quality metrics plus whether the streamed
assignment is bit-identical (for natural order it must be).  HEP itself
runs as a ``JobSpec`` under an explicit byte budget, so the whole
comparison finally happens under the memory constraint the paper's
title promises.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import select_tau
from repro.experiments.common import (
    ExperimentResult,
    dataset_list,
    load_dataset,
    partition_graph,
)
from repro.graph.edgelist import write_binary_edgelist
from repro.runtime import make_job, run_job

__all__ = ["run"]

_DEFAULT = ("WI",)
_FULL = ("WI", "LJ", "OK")

#: baselines with an out-of-core driver adapter (paper Table 1 names)
_BASELINES = ("HDRF", "Greedy", "DBH", "Grid", "Restreaming")

_CHUNK = 1 << 14


def run(
    graphs: tuple[str, ...] | None = None,
    k: int = 32,
    budget_fraction: float = 0.5,
) -> ExperimentResult:
    """Compare every streaming baseline in-memory vs out-of-core.

    ``budget_fraction`` scales HEP's byte budget relative to the
    HEP-10 projected footprint, so the budgeted run genuinely has to
    pick a smaller tau on skewed inputs.
    """
    names = list(graphs) if graphs else dataset_list(_DEFAULT, _FULL)
    rows: list[dict[str, object]] = []
    identical_everywhere = True
    with tempfile.TemporaryDirectory(prefix="ooc-exp-") as tmp:
        for name in names:
            graph = load_dataset(name)
            path = Path(tmp) / f"{name}.bin"
            write_binary_edgelist(graph, path)
            for algo in _BASELINES:
                _, in_mem = partition_graph(algo, graph, k)
                ooc = run_job(make_job(algo, path, k, chunk_size=_CHUNK))
                same = bool(np.array_equal(ooc.parts, in_mem.parts))
                identical_everywhere &= same
                rows.append(
                    {
                        "graph": name,
                        "partitioner": ooc.algorithm,
                        "rf_in_mem": round(in_mem.replication_factor(), 4),
                        "rf_ooc": round(ooc.replication_factor, 4),
                        "alpha_ooc": round(ooc.edge_balance, 4),
                        "ooc_runtime_s": round(ooc.runtime_s, 3),
                        "identical": same,
                    }
                )
            # HEP under a genuine byte budget, from the same edge file.
            _, footprint = select_tau(graph, 10**12, k)
            budget = max(1, int(footprint * budget_fraction))
            result = run_job(make_job(
                "HEP", path, k, chunk_size=_CHUNK, memory_budget=budget,
            ))
            _, hep_in_mem = partition_graph(f"HEP-{result.tau:g}", graph, k)
            hep_same = bool(np.array_equal(result.parts, hep_in_mem.parts))
            identical_everywhere &= hep_same
            rows.append(
                {
                    "graph": name,
                    "partitioner": f"HEP-{result.tau:g} (budget)",
                    "rf_in_mem": round(hep_in_mem.replication_factor(), 4),
                    "rf_ooc": round(result.replication_factor, 4),
                    "alpha_ooc": round(result.edge_balance, 4),
                    "ooc_runtime_s": round(result.runtime_s, 3),
                    "identical": hep_same,
                }
            )
    result = ExperimentResult(
        experiment_id="out_of_core",
        title="streaming baselines: in-memory vs out-of-core (natural order)",
        rows=rows,
        paper_shape="same quality ranking as Tables 2-4, now under a real "
        "memory budget",
    )
    result.notes.append(
        f"streamed == in-memory for every baseline: {identical_everywhere}"
    )
    return result
