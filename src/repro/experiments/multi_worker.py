"""Multi-worker shard-parallel partitioning vs its in-process oracle.

The paper's closing future-work direction is parallelism; the ROADMAP's
concrete step is multi-*worker* partitioning over the PR 3 shard
format.  This experiment runs multi-worker ``JobSpec``\\ s through the
runtime layer (:func:`~repro.runtime.spec.make_job` →
:func:`~repro.runtime.api.run_job`, which lowers to N OS processes,
one per shard assignment) for N ∈ {1, 2, 4} on a sharded export and
verifies, per row, that the multi-process run is **bit-identical** to
the in-process BSP schedule
(:func:`~repro.parallel.bsp_streaming.bsp_hdrf_stream`) with the same
workers/batch and the same shard-derived streams — the executable
oracle.  It also reports the replication-factor cost of staleness as
``workers x batch`` grows, and the HEP variant (``algo="HEP"`` with
``workers``) against NE++ followed by the same in-process schedule
over the h2h edges.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core.hep import phase_two_capacity
from repro.core.ne_plus_plus import run_ne_plus_plus
from repro.experiments.common import ExperimentResult, dataset_list, load_dataset
from repro.graph.edgelist import write_binary_edgelist
from repro.parallel import bsp_hdrf_stream
from repro.partition.base import capacity_bound
from repro.partition.state import StreamingState
from repro.runtime import make_job, run_job
from repro.stream import plan_worker_segments, write_sharded_edges

__all__ = ["run"]

_DEFAULT = ("WI",)
_FULL = ("WI", "LJ")

_WORKER_COUNTS = (1, 2, 4)
_BATCH = 8
_SHARDS = 4
_K = 8
_TAU = 1.0


def run(graphs: tuple[str, ...] | None = None, k: int = _K) -> ExperimentResult:
    """Compare multi-process shard-parallel runs to the in-process oracle."""
    names = list(graphs) if graphs else dataset_list(_DEFAULT, _FULL)
    rows: list[dict[str, object]] = []
    identical_everywhere = True
    with tempfile.TemporaryDirectory(prefix="mw-exp-") as tmp:
        for name in names:
            graph = load_dataset(name)
            manifest = Path(tmp) / f"{name}.manifest.json"
            write_sharded_edges(graph, manifest, num_shards=_SHARDS)
            for workers in _WORKER_COUNTS:
                result = run_job(make_job(
                    "HDRF", manifest, k, workers=workers, batch=_BATCH,
                ))
                _, streams, _, _ = plan_worker_segments(manifest, workers)
                capacity = capacity_bound(graph.num_edges, k, 1.0)
                state = StreamingState(
                    graph.num_vertices, k, capacity,
                    exact_degrees=graph.degrees,
                )
                oracle = np.full(graph.num_edges, -1, dtype=np.int32)
                bsp_hdrf_stream(
                    state, graph.edges, np.arange(graph.num_edges), oracle,
                    workers, batch=_BATCH, streams=streams,
                )
                same = bool(np.array_equal(result.parts, oracle))
                identical_everywhere &= same
                rows.append(
                    {
                        "graph": name,
                        "driver": result.algorithm,
                        "workers": workers,
                        "batch": _BATCH,
                        "supersteps": result.report.supersteps,
                        "rf": round(result.replication_factor, 4),
                        "alpha": round(result.edge_balance, 4),
                        "runtime_s": round(result.runtime_s, 3),
                        "identical_to_bsp": same,
                    }
                )
            # HEP: the multi-process phase two vs its in-process schedule.
            binary = Path(tmp) / f"{name}.bin"
            write_binary_edgelist(graph, binary)
            hep_result = run_job(make_job(
                "HEP", binary, k, workers=2, batch=_BATCH, tau=_TAU,
            ))
            hep_same = bool(np.array_equal(
                hep_result.parts, _bsp_hep_oracle(graph, k, 2, _BATCH)
            ))
            identical_everywhere &= hep_same
            rows.append(
                {
                    "graph": name,
                    "driver": f"HEP-{_TAU:g}-mw2",
                    "workers": 2,
                    "batch": _BATCH,
                    "supersteps": (
                        hep_result.report.supersteps if hep_result.report
                        else 0
                    ),
                    "rf": round(hep_result.replication_factor, 4),
                    "alpha": round(hep_result.edge_balance, 4),
                    "runtime_s": round(hep_result.runtime_s, 3),
                    "identical_to_bsp": hep_same,
                }
            )
    result = ExperimentResult(
        experiment_id="multi_worker",
        title="multi-worker shard-parallel partitioning vs in-process BSP",
        rows=rows,
        paper_shape="staleness (workers x batch) trades a little RF for "
        "parallel throughput; every multi-process run equals its "
        "in-process schedule bit for bit",
    )
    result.notes.append(
        f"multi-process == in-process BSP everywhere: {identical_everywhere}"
    )
    return result


def _bsp_hep_oracle(graph, k: int, workers: int, batch: int) -> np.ndarray:
    """NE++ at ``_TAU``, then the h2h edges on the round-robin BSP schedule."""
    phase_one = run_ne_plus_plus(graph, k, tau=_TAU)
    capacity = phase_two_capacity(graph.num_edges, k, 1.0, phase_one.loads)
    state = StreamingState.informed(
        graph, k, capacity,
        replicas=phase_one.secondary, loads=phase_one.loads,
    )
    h2h = phase_one.h2h
    bsp_hdrf_stream(
        state, h2h.pairs, h2h.eids, phase_one.parts, workers, batch=batch
    )
    return phase_one.parts
