"""Bench: multi-worker shard-parallel partitioning wall-clock.

Measures what ``partition --workers N`` buys over the *single-worker*
sequential out-of-core driver — the path a user without ``--workers``
runs today.  The sequential side is the scalar HDRF kernel
(:func:`repro.partition.hdrf.hdrf_stream`), which scores a few
partitions per edge instead of all ``k``; at WI scale (67,698 edges,
k=8) it beats every worker row on a 2-CPU host, so the bench gates that
it beats ``HDRF-mw1``, the same single stream plus BSP overhead.  The
coordinator streams worker 0's lane itself, so ``HDRF-mw1`` forks no
process: its overhead is the superstep schedule, the snapshot commits
and the shared segment, and ``N`` workers fork ``N - 1``.  What the
worker rows stack on top of that overhead:

* **batching** — the BSP schedule scores ``batch`` edges per worker per
  superstep against a frozen snapshot, so scoring vectorizes, bought
  with the (reported) small replication-factor cost of staleness.
* **shared-memory state** — worker batches land in scratch lanes of one
  ``/dev/shm`` segment and snapshots are published by flipping a double
  buffer, so no worker pickles a batch or re-applies a merged delta.
* **process parallelism** — with ``N`` workers each lane streams its
  own shard assignment, the coordinator's included, so scoring and
  shard decode run concurrently on multi-core hosts.  On a single-core container (``cpu_count`` is
  recorded in the JSON) worker scaling is bounded by barrier
  amortization alone, so the 4-vs-1-worker gate falls back to the
  work-split model.

The measured rows land in ``results/BENCH_workers.json`` (validated by
``tools/check_bench_schema.py``) with 1/2/4-worker wall-clock and
replication factor, plus the sequential single-worker
baseline every speedup is computed against, plus a PR 8 cached-vs-cold
pair: the same 2-worker ``JobSpec`` run cold through
:func:`repro.runtime.api.run_job` (artifact-store write included) and
then served as a content-addressed cache hit.

Like every ``bench_*`` module here, functions use the ``bench_`` prefix
so the tier-1 test run (default ``python_functions = test*``) never
collects them.  Run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_workers.py \
        -o python_functions=bench_
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.graph import datasets
from repro.runtime import ArtifactStore, make_job, run_job
from repro.stream import plan_worker_segments, write_sharded_edges

_K = 8
_BATCH = 16
_SHARDS = 4
_WORKER_COUNTS = (1, 2, 4)
_REPEATS = 3
_RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    """The WI stand-in exported as a 4-shard manifest."""
    graph = datasets.load("WI")
    out = tmp_path_factory.mktemp("bench-workers") / "wi.manifest.json"
    return write_sharded_edges(graph, out, num_shards=_SHARDS)


def _best_of(fn, repeats: int = _REPEATS):
    """Best wall-clock of ``repeats`` runs (and the last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_multi_worker_scaling(manifest, capsys, tmp_path):
    """1/2/4 shared-memory workers vs the sequential driver.

    Emits ``results/BENCH_workers.json``.  Gates: the sequential
    single-worker run must beat the 1-worker BSP run (the same stream
    of work plus supersteps, snapshots and the shared segment), and 4
    workers must beat 1 worker by >= 1.3x — measured where the host has
    >= 4 cores, by the shard work-split model where it does not.
    """
    seq_s, seq = _best_of(
        lambda: run_job(make_job(
            "HDRF", manifest.path, _K, algo_params={"exact_degrees": True},
        ))
    )
    rows = [
        {
            "driver": "sequential single-worker (HDRF informed)",
            "protocol": "sequential",
            "workers": 1,
            "batch": 1,
            "seconds": seq_s,
            "rf": seq.replication_factor,
            "supersteps": seq.num_edges,
            "speedup_vs_single_worker": 1.0,
        }
    ]
    shm_seconds: dict[int, float] = {}
    for workers in _WORKER_COUNTS:
        run_s, run = _best_of(
            lambda w=workers: run_job(make_job(
                "HDRF", manifest.path, _K, workers=w, batch=_BATCH,
            ))
        )
        shm_seconds[workers] = run_s
        rows.append(
            {
                "driver": f"{run.algorithm} (shared-memory)",
                "protocol": "shared-memory",
                "workers": workers,
                "batch": _BATCH,
                "seconds": run_s,
                "rf": run.replication_factor,
                "supersteps": run.report.supersteps,
                "speedup_vs_single_worker": seq_s / run_s,
            }
        )
    # Cached re-run: the same 2-worker spec served from the PR 8
    # content-addressed artifact store instead of recomputed.  The cold
    # row pays the full pipeline plus the store write; the cached row
    # is one digest + load.
    store = ArtifactStore(tmp_path / "cache")
    spec = make_job("HDRF", manifest.path, _K, workers=2, batch=_BATCH)
    start = time.perf_counter()
    cold = run_job(spec, store=store)
    cold_s = time.perf_counter() - start
    hit_s, hit = _best_of(lambda: run_job(spec, store=store))
    assert hit.cache_hit and store.hits >= 1
    rows.append(
        {
            "driver": f"{cold.algorithm} (runtime, cold + store write)",
            "protocol": "cold",
            "workers": 2,
            "batch": _BATCH,
            "seconds": cold_s,
            "rf": cold.replication_factor,
            "supersteps": cold.report.supersteps,
            "speedup_vs_single_worker": seq_s / cold_s,
        }
    )
    rows.append(
        {
            "driver": f"{hit.algorithm} (runtime, cached)",
            "protocol": "cached",
            "workers": 2,
            "batch": _BATCH,
            "seconds": hit_s,
            "rf": hit.replication_factor,
            "supersteps": hit.report.supersteps,
            "speedup_vs_single_worker": seq_s / hit_s,
        }
    )
    # The parallelism the shard split exposes to a multi-core host,
    # independent of this container's core count.
    _, streams, _, _ = plan_worker_segments(manifest.path, max(_WORKER_COUNTS))
    modeled_parallelism = manifest.num_edges / max(s.size for s in streams)
    record = {
        "bench": "multi_worker_scaling",
        "graph": "WI",
        "edges": manifest.num_edges,
        "k": _K,
        "shards": _SHARDS,
        "cpu_count": os.cpu_count(),
        "modeled_parallelism_4w": modeled_parallelism,
        "rows": rows,
    }
    _RESULTS.mkdir(exist_ok=True)
    out = _RESULTS / "BENCH_workers.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    with capsys.disabled():
        print(f"\n[bench_workers] -> {out}")
        for row in rows:
            print(
                f"  {row['driver']:<42} {row['seconds']:.3f}s  "
                f"rf={row['rf']:.4f}  "
                f"x{row['speedup_vs_single_worker']:.2f}"
            )
    assert seq_s < shm_seconds[1], (
        f"sequential single-worker driver ({seq_s:.3f}s) is not faster "
        f"than the 1-worker BSP run ({shm_seconds[1]:.3f}s)"
    )
    if (os.cpu_count() or 1) >= 4:
        assert shm_seconds[1] / shm_seconds[4] >= 1.3, (
            f"4 workers only beat 1 worker by "
            f"x{shm_seconds[1] / shm_seconds[4]:.2f} on a "
            f"{os.cpu_count()}-core host"
        )
    else:
        # Too few cores for process parallelism to beat the clock: pin
        # the work-split the shard schedule exposes instead.
        assert modeled_parallelism >= 1.3, (
            f"4-worker shard split only models x{modeled_parallelism:.2f}"
        )
    # Staleness must stay a modest quality cost (the BSP trade-off).
    widest_shm = [r for r in rows if r["protocol"] == "shared-memory"][-1]
    assert widest_shm["rf"] <= rows[0]["rf"] * 1.15
    # The cached re-run must return the identical quality for a small
    # fraction of the cold wall-clock — otherwise the store is not
    # actually skipping the pipeline.
    cached_row = next(r for r in rows if r["protocol"] == "cached")
    cold_row = next(r for r in rows if r["protocol"] == "cold")
    assert cached_row["rf"] == cold_row["rf"]
    assert cached_row["seconds"] * 5 <= cold_row["seconds"], (
        f"cache hit ({cached_row['seconds']:.3f}s) is not clearly faster "
        f"than the cold run ({cold_row['seconds']:.3f}s)"
    )
