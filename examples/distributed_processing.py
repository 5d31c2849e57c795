#!/usr/bin/env python
"""End-to-end distributed processing: why partitioning quality matters.

Reproduces the workflow behind the paper's Table 4 on the Twitter
stand-in: partition with a cheap hash (DBH) vs HEP, then run PageRank,
BFS and Connected Components on the simulated 32-machine cluster and
compare total cost (partitioning + processing).

Run:  python examples/distributed_processing.py
"""

import time

from repro import datasets, make_job, run_job
from repro.processing import VertexCutEngine, bfs, connected_components, pagerank


def evaluate(name: str, spec, graph) -> dict:
    start = time.perf_counter()
    result = run_job(spec, graph)
    partition_time = time.perf_counter() - start
    engine = VertexCutEngine(result.to_assignment(graph))
    return {
        "partitioner": name,
        "partition_s": partition_time,
        "RF": result.replication_factor,
        "PageRank_s": pagerank(engine, iterations=100).sim_seconds,
        "BFS_s": bfs(engine, num_seeds=10, seed=7).sim_seconds,
        "CC_s": connected_components(engine).sim_seconds,
    }


def main() -> None:
    graph = datasets.load("TW")
    k = 32
    print(f"graph: {graph!r}, k={k}\n")

    rows = [
        evaluate("DBH", make_job("DBH", graph, k), graph),
        evaluate("HEP-10", make_job("HEP", graph, k, tau=10.0), graph),
    ]
    header = f"{'partitioner':>12} | {'part_s':>7} | {'RF':>5} | " \
             f"{'PageRank_s':>10} | {'BFS_s':>7} | {'CC_s':>6}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['partitioner']:>12} | {r['partition_s']:>7.2f} |"
            f" {r['RF']:>5.2f} | {r['PageRank_s']:>10.1f} |"
            f" {r['BFS_s']:>7.1f} | {r['CC_s']:>6.1f}"
        )

    dbh, hep = rows
    print("\nreading the numbers (paper Section 5.3's conclusions):")
    speedup = dbh["PageRank_s"] / hep["PageRank_s"]
    print(f"- long jobs: HEP's lower RF makes PageRank {speedup:.2f}x faster;"
          " quality partitioning pays for itself")
    total_dbh = dbh["partition_s"] + dbh["CC_s"]
    total_hep = hep["partition_s"] + hep["CC_s"]
    winner = "DBH" if total_dbh < total_hep else "HEP-10"
    print(f"- short jobs: partition+CC total favors {winner}; for quick"
          " one-shot jobs cheap hashing can win overall")


if __name__ == "__main__":
    main()
