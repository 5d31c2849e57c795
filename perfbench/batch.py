"""Batch workloads: ``hep-budget`` and ``hdrf-mw2``.

The benchmark process generates the graph and checks the outputs; the
jobs run in a separate job process (this file run as a script), which
is given only the manifest path.  Its ``ru_maxrss`` is
the workload's ``peak_rss_mb`` and its ``RUSAGE_CHILDREN`` high-water
mark, which covers the worker processes it reaped, is
``stream.workers.peak_rss_mb``.

Protocol: the job process prints ``ready`` once its imports are done
and waits for ``go`` (run) or ``quit`` on stdin; it writes its results
to ``child.json`` and the first job's assignment to ``parts.npy`` in
its work directory, then prints ``done``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from common import (
    EXACT_UNITS,
    HERE,
    METRICS,
    SETUP_REPEATS,
    child_env,
    median,
    probe_layers,
    probe_totals,
    psm_segments,
    reference_s,
    result_layers,
    stage_layers,
)

#: timed jobs per run, even when they take longer than ``--seconds``
MIN_JOBS = 5
#: cache-hit re-runs of the finished spec after each timed job
HITS_PER_JOB = 8
#: bound on one job-process run, far above a normal one
CHILD_TIMEOUT_S = 170

SPECS = {
    # 1 MB selects tau 10 on the 2**14-vertex graph
    "hep-budget": {"algo": "HEP", "k": 8, "memory_budget": 1_000_000},
    "hdrf-mw2": {"algo": "HDRF", "k": 32, "workers": 2, "batch": 16},
}


class JobProcess:
    """The job process of one set-up, started and waiting for ``go``."""

    def __init__(self, workload: str, manifest: Path, workdir: Path,
                 seconds: float, trace: bool) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "batch.py"),
             "--workload", workload, "--manifest", str(manifest),
             "--workdir", str(workdir), "--seconds", str(seconds),
             "--trace", "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(workdir), cwd=workdir,
        )
        self._expect("ready")

    def _expect(self, word: str) -> None:
        line = self.proc.stdout.readline().strip()
        if line != word:
            self.close()
            raise RuntimeError(
                f"job process said {line!r} instead of {word!r} "
                f"(exit status {self.proc.returncode})"
            )

    def run(self) -> dict:
        """Start the jobs and wait for the job process to end."""
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        self._expect("done")
        self.proc.stdin.close()
        if self.proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise RuntimeError(f"job process exited {self.proc.returncode}")
        return json.loads((self.workdir / "child.json").read_text())

    def close(self) -> None:
        """Tell a waiting job process to quit, and reap it."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: int, workdir: Path) -> dict:
    """One run of a batch workload; returns the outcome dict run.py prints."""
    import numpy as np
    from inputs import check_assignment, timed_setups

    counter = itertools.count()

    def start(manifest: Path) -> JobProcess:
        return JobProcess(
            workload, manifest, workdir / f"job-{next(counter)}",
            seconds, trace,
        )

    shm_before = psm_segments()
    graph, manifest, record, process, setups = timed_setups(
        seed, scale, workdir, 1 if trace else SETUP_REPEATS, start
    )
    try:
        out = process.run()
    finally:
        process.close()
    parts = np.load(process.workdir / "parts.npy")
    errors = list(out["errors"])
    leaked = psm_segments() - shm_before
    if leaked:
        errors.append(f"leftover shared memory: {sorted(leaked)}")
    errors += check_assignment(
        graph, parts, out["k"], out["loads"], out["rf"], out["edge_balance"]
    )
    if len(set(out["parts_sha256"])) != 1:
        errors.append("parts digest differs across repeats")
    attempted = len(out["parts_sha256"]) + len(out["hit_ms"])
    outcome = {
        "input": record,
        "spec": out["spec"],
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "raw": {"job_s": out["job_s"], "hit_ms": out["hit_ms"],
                "setup_s": setups},
        "printed": {
            "error_rate": (len(errors) / attempted, "ratio", attempted),
        },
    }
    if trace:
        outcome["layers"] = out["layers"] | {
            "stream.workers.peak_rss_mb": out["workers_peak_rss_mb"],
        }
        return outcome
    partition_s = median(out["job_s"])
    jobs = len(out["job_s"])
    refs = out["ref_s"]
    hits = len(out["hit_ms"])
    outcome["end_to_end"] = {
        "setup_s": (median(setups), "s", len(setups)),
        "partition_rel": (
            median(s / ref for s, ref in zip(out["job_s"], refs)),
            "ratio", jobs,
        ),
        "submit_rel": (
            median(ms / 1e3 / refs[i // HITS_PER_JOB]
                   for i, ms in enumerate(out["hit_ms"])),
            "ratio", hits,
        ),
        "rf": (out["rf"], "ratio", 1),
        "edge_balance": (out["edge_balance"], "ratio", 1),
        "peak_rss_mb": (out["peak_rss_mb"], "MB", 1),
    }
    outcome["raw"]["ref_s"] = refs
    outcome["printed"] |= {
        "partition_s": (partition_s, "s", jobs),
        "submit_p50_ms": (median(out["hit_ms"]), "ms", hits),
        "reference_s": (median(refs), "s", len(refs)),
        "edges_per_s": (graph.num_edges / partition_s, "1/s", jobs),
    }
    return outcome


# -- the job process ---------------------------------------------------------


def _spec(workload: str, manifest: str, workdir: Path):
    """The workload's JobSpec; spills stay inside the work directory."""
    from repro.runtime.spec import make_job

    options = dict(SPECS[workload])
    return make_job(
        options.pop("algo"), manifest, options.pop("k"),
        spill_dir=str(workdir), **options,
    )


def _rss_mb(who: int) -> float:
    """``ru_maxrss`` (KiB on Linux) in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def _timed_job(spec, store=None):
    """One untraced ``run_job``; refuses to run with a tracer installed."""
    from repro.obs.tracer import NULL_TRACER, get_tracer
    from repro.runtime.api import run_job

    if get_tracer() is not NULL_TRACER:
        raise RuntimeError("a timed job would run with tracing on")
    start = time.perf_counter()
    result = run_job(spec, store=store)
    return result, time.perf_counter() - start


def _traced_job(spec):
    """One ``run_job`` under a collecting tracer; returns its records too."""
    from repro.obs.tracer import Tracer, set_tracer
    from repro.runtime.api import run_job

    tracer = Tracer(None)
    previous = set_tracer(tracer)
    try:
        start = time.perf_counter()
        result = run_job(spec)
        elapsed = time.perf_counter() - start
    finally:
        set_tracer(previous)
    return result, elapsed, tracer.drain()


def _digest(parts) -> str:
    return hashlib.sha256(parts.tobytes()).hexdigest()


def _timed(spec, manifest: str, seconds: float, workdir: Path, out: dict):
    """A warm-up job, then timed jobs, each followed by cache hits.

    The untimed warm-up job fills the store and the process's lazy
    imports.  Each timed job is preceded by :func:`reference_s`, so
    the job and its hits can be divided by the host's speed of that
    moment.  Spreading the hits over the run, rather than timing them
    in one burst, keeps a short slow spell of the host from setting
    their median.  Everything here runs untraced.
    """
    from repro.runtime.store import ArtifactStore, input_digest

    store = ArtifactStore(workdir / "store")
    began = time.perf_counter()
    reference_s()
    result, _ = _timed_job(spec)
    out["parts_sha256"].append(_digest(result.parts))
    digest = input_digest(spec, manifest)
    store.put(store.cache_key(spec, digest), result, digest)
    # A job starts only if a typical job still ends within ``seconds``,
    # so a slow host makes fewer jobs rather than a longer run.
    while len(out["job_s"]) < MIN_JOBS or (
        time.perf_counter() - began + median(out["job_s"])
        + median(out["ref_s"]) <= seconds
    ):
        out["ref_s"].append(reference_s())
        result, elapsed = _timed_job(spec)
        out["job_s"].append(elapsed)
        out["parts_sha256"].append(_digest(result.parts))
        for _ in range(HITS_PER_JOB):
            hit, elapsed = _timed_job(spec, store=store)
            out["hit_ms"].append(elapsed * 1e3)
            if not hit.cache_hit or (
                _digest(hit.parts) != out["parts_sha256"][0]
            ):
                out["errors"].append(
                    "cache hit returned a different assignment"
                )
    return result


def _traced(spec, manifest: str, seconds: float, workdir: Path, out: dict):
    """Untraced/traced pairs of jobs, then the direct layer probes."""
    from repro.obs.tracer import Tracer

    untraced, traced, layer_runs = [], [], []
    began = time.perf_counter()
    while True:
        result, elapsed = _timed_job(spec)
        untraced.append(elapsed)
        out["parts_sha256"].append(_digest(result.parts))
        result, elapsed, records = _traced_job(spec)
        traced.append(elapsed)
        out["parts_sha256"].append(_digest(result.parts))
        layer_runs.append(stage_layers(records) | result_layers(result))
        spent = time.perf_counter() - began
        if spent + spent / len(traced) > seconds:
            break
    out["job_s"] = untraced
    layers = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        if METRICS["per_layer"][name]["unit"] in EXACT_UNITS:
            layers[name] = values[0]
            if len(set(values)) != 1:
                out["errors"].append(f"{name} differs across traced jobs")
        else:
            layers[name] = median(values)
    layers["obs.trace_overhead_frac"] = median(traced) / median(untraced) - 1
    probe = Tracer(None)
    layers |= probe_layers(probe, spec, manifest, result, workdir)
    layers |= probe_totals(probe.drain())
    out["layers"] = layers
    return result


def child_main(args) -> int:
    """The job process: imports, ``ready``, then jobs on ``go``."""
    import numpy as np

    workdir = Path(args.workdir)
    spec = _spec(args.workload, args.manifest, workdir)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    out = {"job_s": [], "ref_s": [], "hit_ms": [], "parts_sha256": [],
           "errors": []}
    run = _traced if args.trace else _timed
    result = run(spec, args.manifest, args.seconds, workdir, out)
    np.save(workdir / "parts.npy", result.parts)
    out |= {
        "spec": spec.to_dict(),
        "k": result.k,
        "loads": [int(x) for x in result.loads],
        "rf": result.replication_factor,
        "edge_balance": result.edge_balance,
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "workers_peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
    }
    (workdir / "child.json").write_text(json.dumps(out), encoding="utf-8")
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="benchmark job process")
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    raise SystemExit(child_main(parser.parse_args()))
