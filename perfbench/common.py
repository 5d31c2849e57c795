"""Helpers shared by the benchmark's workloads and its job process.

Nothing here runs on import.  ``ROOT``/``SRC`` locate the checkout the
benchmark runs from; everything it writes lives under ``ROOT``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
METRICS = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
#: units of per-layer metrics that are counts: they must repeat exactly
EXACT_UNITS = ("count", "bytes")

#: R-MAT parameters of the WI stand-in (repro.graph.datasets._wi)
WI_RECIPE = {"edge_factor": 10, "a": 0.57, "b": 0.19, "c": 0.19}
#: log2 of the vertex count per workload.  ``serve-mixed`` reads 2**17
#: vertices, about 1.2M edges (WI x16 at the default seed 104).  The
#: batch workloads read 2**14 vertices (about 140k edges) and 2**13
#: (about 70k), so that a run holds 15-30 jobs whose median outlasts a
#: slow spell of a shared host.
SCALES = {"hep-budget": 14, "hdrf-mw2": 13, "serve-mixed": 17}
NUM_SHARDS = 4
#: set-ups per timed run; ``setup_s`` is their median
SETUP_REPEATS = 5


#: vertices, parts and edges of the reference task (about 0.1 s)
REF_VERTICES, REF_PARTS, REF_EDGES = 4096, 8, 30_000


@functools.cache
def _reference_edges() -> list[tuple[int, int]]:
    rng = random.Random(0)
    return [(rng.randrange(REF_VERTICES), rng.randrange(REF_VERTICES))
            for _ in range(REF_EDGES)]


def reference_s() -> float:
    """Seconds of a fixed task that shares no code with ``repro``.

    The task is a greedy HDRF-like vertex-cut written here in plain
    Python.  On a shared host the same job reads 0.9-1.8 s from one
    second to the next, and states last several seconds; pure-Python
    code like this slows with the job, while a numpy task barely does.
    Timed right before each job, it is the yardstick the ``*_rel``
    metrics divide by; a change to the program under test cannot move
    it.
    """
    edges = _reference_edges()
    start = time.perf_counter()
    degree = [0] * REF_VERTICES
    loads = [0] * REF_PARTS
    replicas = [set() for _ in range(REF_VERTICES)]
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
        theta_u = degree[u] / (degree[u] + degree[v])
        top, low = max(loads), min(loads)
        best, best_score = 0, -1.0
        for part in range(REF_PARTS):
            score = (top - loads[part]) / (1.0 + top - low)
            if part in replicas[u]:
                score += 2.0 - theta_u
            if part in replicas[v]:
                score += 1.0 + theta_u
            if score > best_score:
                best, best_score = part, score
        loads[best] += 1
        replicas[u].add(best)
        replicas[v].add(best)
    return time.perf_counter() - start


def child_env(tmpdir: Path) -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(tmpdir)
    return env


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    """Median of a non-empty sample, as a float."""
    return float(statistics.median(values))


def environment_record() -> dict:
    """What a result must carry to be compared with another one."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(SRC / "repro"),
    }


def _git_sha() -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _tree_digest(root: Path) -> str:
    """Sha256 over the package sources, which identifies the code run."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def psm_segments() -> set:
    """Live ``psm_*`` shared-memory segments (the worker pools' data plane)."""
    shm = Path("/dev/shm")
    return {p.name for p in shm.glob("psm_*")} if shm.is_dir() else set()


# -- per-layer reductions ----------------------------------------------------


def span_total(rollup: dict, name: str) -> float:
    """Total seconds of the spans called ``name`` (0 when none ran)."""
    return float(rollup.get(name, {}).get("total_s", 0.0))


def _hdrf_stream_spans(records: list[dict]) -> list[dict]:
    """``stream_pass`` spans that ran the sequential HDRF kernel."""
    spans = []
    for record in records:
        if record.get("type") != "span" or record["name"] != "stream_pass":
            continue
        attrs = record.get("attrs") or {}
        if attrs.get("phase") == "spill" or attrs.get("algo") == "HDRF":
            spans.append(record)
    return spans


def stage_layers(records: list[dict]) -> dict:
    """Per-layer numbers of one job, reduced from its span records."""
    from repro.obs.summary import aggregate_spans, phase_breakdown

    rollup = aggregate_spans(records)
    hdrf = _hdrf_stream_spans(records)
    hdrf_s = sum(r.get("dur_s", 0.0) for r in hdrf)
    hdrf_edges = sum(
        (r.get("counters") or {}).get("edges_scanned", 0) for r in hdrf
    )
    layers = {
        "stream.scan.count_s": span_total(rollup, "count_pass"),
        "stream.scan.metrics_s": span_total(rollup, "metrics_pass"),
        "core.tau.select_s": span_total(rollup, "select_tau"),
        "stream.spill.split_s": span_total(rollup, "split_pass"),
        "core.ne_plus_plus.phase_one_s": span_total(rollup, "phase_one"),
        "partition.hdrf.stream_s": hdrf_s,
        "partition.hdrf.edges": int(hdrf_edges),
        "partition.hdrf.us_per_edge": (
            hdrf_s / hdrf_edges * 1e6 if hdrf_edges else 0.0
        ),
        "stream.workers.pool_spawn_s": span_total(rollup, "pool_spawn"),
        "stream.workers.pool_run_s": span_total(rollup, "pool_run"),
        "parallel.shm.attach_s": span_total(rollup, "shm_attach"),
        "parallel.shm.commit_s": span_total(rollup, "superstep_commit"),
    }
    if any(r.get("type") == "span" and r["name"] == "partition"
           for r in records):
        breakdown = phase_breakdown(records)
        for phase, share in breakdown["fractions"].items():
            layers[f"obs.phase.{phase}"] = share
        layers["obs.phase.attributed"] = breakdown["attributed"]
    return layers


def result_layers(result) -> dict:
    """Per-layer numbers a :class:`PartitionResult` reports itself."""
    report = result.report
    timings = report.timings if report is not None else None
    return {
        "core.tau.tau": int(result.tau) if result.tau is not None else 0,
        "stream.spill.bytes": int(result.spill_bytes or 0),
        "stream.workers.supersteps": report.supersteps if report else 0,
        "stream.workers.busy_s": sum(timings.busy_s) if timings else 0.0,
        "stream.workers.wait_s": sum(timings.wait_s) if timings else 0.0,
        "stream.workers.skew": timings.skew if timings else 0.0,
    }


def probe_layers(tracer, spec, source, result, workdir: Path) -> dict:
    """Direct calls into layers that emit no span of their own.

    Each call runs inside a span opened here, on ``tracer``, so the
    numbers come out of the same ``aggregate_spans`` reduction as the
    program's own spans.  Returns the store's hit/miss counts.
    """
    from repro.runtime.store import ArtifactStore, input_digest
    from repro.serve.artifacts import ArtifactCache
    from repro.stream.reader import open_edge_source

    with tracer.span("stream.reader.read") as span:
        for chunk in open_edge_source(source, spec.chunk_size):
            span.add("edges", chunk.num_edges)
    with tracer.span("runtime.store.digest"):
        digest = input_digest(spec, source)
    store = ArtifactStore(workdir / "probe-store")
    key = store.cache_key(spec, digest)
    if store.get(key, spec) is not None:
        raise RuntimeError("scratch store answered before anything was put")
    with tracer.span("runtime.store.put"):
        store.put(key, result, digest)
    with tracer.span("runtime.store.get"):
        cached = store.get(key, spec)
    if cached is None or not (cached.parts == result.parts).all():
        raise RuntimeError("scratch store returned a different assignment")
    cache = ArtifactCache(store)
    with tracer.span("serve.artifacts.attach"):
        artifact = cache.attach(key)
    with tracer.span("serve.artifacts.cover"):
        artifact.vertex_parts(0)
    return {"runtime.store.hits": store.hits,
            "runtime.store.misses": store.misses}


def probe_totals(records: list[dict]) -> dict:
    """Seconds of the benchmark's own probe spans, by metric name."""
    from repro.obs.summary import aggregate_spans

    rollup = aggregate_spans(records)
    return {
        "stream.reader.read_s": span_total(rollup, "stream.reader.read"),
        "runtime.store.digest_s": span_total(rollup, "runtime.store.digest"),
        "runtime.store.get_s": span_total(rollup, "runtime.store.get"),
        "runtime.store.put_s": span_total(rollup, "runtime.store.put"),
        "serve.artifacts.attach_s": span_total(
            rollup, "serve.artifacts.attach"
        ),
        "serve.artifacts.cover_s": span_total(
            rollup, "serve.artifacts.cover"
        ),
    }
