"""Table 1: time complexity of the partitioner families, verified
empirically.

The paper's Table 1 is analytic; this reproduction measures how run-time
scales with ``|E|`` (at fixed k) and with ``k`` (at fixed |E|) for one
representative of each family, confirming:

* stateless streaming (DBH): ~linear in |E|, flat in k,
* stateful streaming (HDRF): ~linear in |E| and in k,
* neighborhood expansion (NE++/HEP): near-linear in |E|, mildly
  k-dependent (heap log factor plus per-partition clean-up).

DBH, HDRF and HEP-10 run as jobs (``run_job``), so their times — and
the scaling ratios and the "Nx DBH" note — include the job's counting
and metrics sweeps over the edges; NE++ runs its in-memory class alone.
"""

from __future__ import annotations

import time

from repro.experiments.common import ExperimentResult, partition_graph
from repro.experiments.paper_reference import SHAPES
from repro.graph.generators import chung_lu

__all__ = ["run"]

_COMPLEXITY = {
    "HEP-10": "O(|E|(log|V|+k) + |V|)",
    "HDRF": "Theta(|E| * k)",
    "DBH": "Theta(|E|)",
    "NE++": "O(|E|(log|V|+k) + |V|)",
}


def _timed(name: str, graph, k: int, repeats: int = 3) -> float:
    """Best-of-N wall time (sub-millisecond runs are noise-dominated)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        partition_graph(name, graph, k)
        best = min(best, time.perf_counter() - start)
    return best


def run(
    partitioners: tuple[str, ...] = ("DBH", "HDRF", "NE++", "HEP-10"),
    sizes: tuple[int, ...] = (10_000, 20_000, 40_000),
    ks: tuple[int, ...] = (4, 16, 64),
) -> ExperimentResult:
    rows: list[dict[str, object]] = []
    graphs = {
        m: chung_lu(max(m // 10, 64), mean_degree=20, exponent=2.2, seed=5)
        for m in sizes
    }
    for name in partitioners:
        # Scaling in |E| at fixed k.
        times_m = {m: _timed(name, g, 32) for m, g in graphs.items()}
        # Scaling in k at fixed |E| (largest graph).
        big = graphs[sizes[-1]]
        times_k = {k: _timed(name, big, k) for k in ks}
        edge_ratio = times_m[sizes[-1]] / max(times_m[sizes[0]], 1e-9)
        k_ratio = times_k[ks[-1]] / max(times_k[ks[0]], 1e-9)
        rows.append(
            {
                "partitioner": name,
                "complexity": _COMPLEXITY[name],
                **{f"t_m{m//1000}k": round(t, 3) for m, t in times_m.items()},
                "t(mx4)/t(mx1)": round(edge_ratio, 2),
                **{f"t_k{k}": round(t, 3) for k, t in times_k.items()},
                f"t(k{ks[-1]})/t(k{ks[0]})": round(k_ratio, 2),
            }
        )
    result = ExperimentResult(
        experiment_id="table1",
        title="Empirical scaling vs Table 1 complexities",
        rows=rows,
        paper_shape=SHAPES["table1"],
    )
    by_name = {str(r["partitioner"]): r for r in rows}
    big_k = f"t_k{ks[-1]}"
    result.notes.append(
        "stateful streaming pays per-partition scoring (Theta(|E|k)):"
        f" HDRF at k={ks[-1]} is "
        f"{float(by_name['HDRF'][big_k]) / max(float(by_name['DBH'][big_k]), 1e-9):.0f}x"
        " DBH — vectorized scoring flattens the k term at small k, the"
        " |E|*k score evaluations are structural"
    )
    grow_cols = [f"t_m{m//1000}k" for m in sizes]
    linear_ok = all(
        float(r[grow_cols[-1]]) <= float(r[grow_cols[0]]) * (sizes[-1] / sizes[0]) * 2.0
        for r in rows
    )
    result.notes.append(f"every family scales near-linearly in |E|: {linear_ok}")
    return result
