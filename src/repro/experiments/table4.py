"""Table 4: distributed graph processing under different partitionings.

Partition OK/IT/TW with HEP-{100,10,1}, NE, SNE, HDRF and DBH (k=32),
then run PageRank (100 iterations), BFS (10 seeds) and Connected
Components on the simulated Spark/GraphX cluster.  The paper's findings
to reproduce: low replication factor buys processing time on long jobs;
DBH's instant partitioning wins short jobs on total time; on the
well-partitionable web graph, vertex balance decides the winner.
"""

from __future__ import annotations

import time

from repro.experiments.common import (
    ExperimentResult,
    load_dataset,
    partition_graph,
)
from repro.experiments.paper_reference import (
    SHAPES,
    TABLE4_CC_S,
    TABLE4_PAGERANK_S,
    TABLE4_REPLICATION_FACTOR,
)
from repro.metrics import replication_factor
from repro.processing import VertexCutEngine, bfs, connected_components, pagerank

__all__ = ["run", "TABLE4_PARTITIONERS"]

TABLE4_PARTITIONERS = ("HEP-100", "HEP-10", "HEP-1", "NE", "SNE", "HDRF", "DBH")
_GRAPHS = ("OK", "IT", "TW")


def run(
    graphs: tuple[str, ...] = _GRAPHS,
    partitioners: tuple[str, ...] = TABLE4_PARTITIONERS,
    k: int = 32,
    pagerank_iterations: int = 100,
    bfs_seeds: int = 10,
) -> ExperimentResult:
    rows: list[dict[str, object]] = []
    for graph_name in graphs:
        graph = load_dataset(graph_name)
        for name in partitioners:
            start = time.perf_counter()
            _, assignment = partition_graph(name, graph, k)
            partition_time = time.perf_counter() - start
            engine = VertexCutEngine(assignment)
            pr = pagerank(engine, iterations=pagerank_iterations)
            bf = bfs(engine, num_seeds=bfs_seeds, seed=1)
            cc = connected_components(engine)
            rows.append(
                {
                    "graph": graph_name,
                    "partitioner": name,
                    "partition_s": round(partition_time, 2),
                    "RF": round(replication_factor(assignment), 2),
                    "paper_RF": TABLE4_REPLICATION_FACTOR.get(name, {}).get(
                        graph_name, "-"
                    ),
                    "PageRank_s": round(pr.sim_seconds, 1),
                    "paper_PR_s": TABLE4_PAGERANK_S.get(name, {}).get(
                        graph_name, "-"
                    ),
                    "BFS_s": round(bf.sim_seconds, 1),
                    "CC_s": round(cc.sim_seconds, 1),
                    "paper_CC_s": TABLE4_CC_S.get(name, {}).get(graph_name, "-"),
                }
            )
    result = ExperimentResult(
        experiment_id="table4",
        title=f"Simulated Spark/GraphX processing (k={k})",
        rows=rows,
        paper_shape=SHAPES["table4"],
    )
    _annotate(result, graphs)
    return result


def _annotate(result: ExperimentResult, graphs: tuple[str, ...]) -> None:
    for graph_name in graphs:
        per = {str(r["partitioner"]): r for r in result.rows if r["graph"] == graph_name}
        if not per:
            continue
        best_pr = min(per, key=lambda p: float(per[p]["PageRank_s"]))
        hep_like = {"HEP-100", "HEP-10", "HEP-1", "NE"}
        result.notes.append(
            f"{graph_name}: fastest PageRank={best_pr} "
            f"(low-RF partitioner wins long jobs: {best_pr in hep_like})"
        )
        total_cc = {
            p: float(per[p]["partition_s"]) + float(per[p]["CC_s"]) for p in per
        }
        best_total_cc = min(total_cc, key=total_cc.get)
        result.notes.append(
            f"{graph_name}: best total (partition+CC)={best_total_cc} "
            f"(fast hashing wins short jobs: {best_total_cc == 'DBH'})"
        )
