"""Figure 9: HEP vs. the simple hybrid baseline (Section 5.4).

Same ``tau`` split, different machinery: HEP runs NE++ + informed HDRF,
the baseline runs plain NE + random streaming.  The paper normalizes the
baseline to HEP; values above 1.0 mean HEP wins that metric.  The last
panel reports the h2h/rest edge-mass split per ``tau``.
"""

from __future__ import annotations

import time

from repro.core import hep_memory_bytes, ne_memory_bytes
from repro.experiments.common import (
    ExperimentResult,
    dataset_list,
    load_dataset,
    partition_graph,
)
from repro.experiments.paper_reference import SHAPES
from repro.graph.pruned import split_edges
from repro.metrics import replication_factor
from repro.partition import SimpleHybridPartitioner

__all__ = ["run"]

_DEFAULT_GRAPHS = ("OK", "IT")
_FULL_GRAPHS = ("OK", "IT", "TW", "FR", "UK")
_TAUS = (100.0, 10.0, 1.0)


def run(
    graphs: tuple[str, ...] | None = None,
    taus: tuple[float, ...] = _TAUS,
    k: int = 32,
) -> ExperimentResult:
    names = list(graphs) if graphs else dataset_list(_DEFAULT_GRAPHS, _FULL_GRAPHS)
    rows: list[dict[str, object]] = []
    for name in names:
        graph = load_dataset(name)
        for tau in taus:
            start = time.perf_counter()
            _, hep = partition_graph(f"HEP-{tau:g}", graph, k)
            hep_time = time.perf_counter() - start

            start = time.perf_counter()
            hybrid = SimpleHybridPartitioner(tau=tau).partition(graph, k)
            hybrid_time = time.perf_counter() - start

            rf_hep = replication_factor(hep)
            rf_hybrid = replication_factor(hybrid)
            # Memory: HEP per Section 4.2; the baseline holds the full NE
            # structures for the REST subgraph.
            rest = graph.subgraph_edges(~split_edges(graph, tau).h2h_mask)
            mem_hep = hep_memory_bytes(graph, tau, k)
            mem_hybrid = ne_memory_bytes(rest, k)
            h2h_fraction = split_edges(graph, tau).h2h_fraction()
            rows.append(
                {
                    "graph": name,
                    "tau": tau,
                    "norm_RF(baseline/HEP)": round(rf_hybrid / rf_hep, 3),
                    "norm_time": round(hybrid_time / max(hep_time, 1e-9), 3),
                    "norm_memory": round(mem_hybrid / mem_hep, 3),
                    "H2H_share": round(h2h_fraction, 4),
                    "REST_share": round(1.0 - h2h_fraction, 4),
                }
            )
    result = ExperimentResult(
        experiment_id="figure9",
        title=f"Simple hybrid (NE + random) normalized to HEP (k={k})",
        rows=rows,
        paper_shape=SHAPES["figure9"],
    )
    for name in names:
        per_graph = [r for r in rows if r["graph"] == name]
        rf_ratios = [float(r["norm_RF(baseline/HEP)"]) for r in per_graph]
        shares = [float(r["H2H_share"]) for r in per_graph]
        # 5% tolerance: at high tau almost nothing streams, so the two
        # systems coincide up to NE-vs-NE++ seeding noise.
        growing = all(b >= a * 0.95 for a, b in zip(rf_ratios, rf_ratios[1:]))
        result.notes.append(
            f"{name}: HDRF-phase advantage grows as tau drops={growing}; "
            f"h2h share grows as tau drops={shares == sorted(shares)}"
        )
    return result
