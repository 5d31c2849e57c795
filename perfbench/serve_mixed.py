"""Serve workload: ``serve-mixed``, a closed loop against ``repro serve``.

A ``repro serve`` process runs on an ephemeral port with a fresh
``--cache``.  After one DBH job (k=8) has finished, two client threads
each send their next request only when the previous one has answered.
Each request is drawn from the seeded mix below: mostly ``/edge`` and
``/vertex`` lookups on that job, re-submits of finished specs, and
``/healthz``.  Each client also sends :data:`COLD_PER_CLIENT` cold DBH
submits, each with a fresh input-order seed and so a fresh content
hash, at fixed points of the run, and waits for each to succeed.  Every
lookup answer is compared with a reference ``run_job`` of the same spec
made by the benchmark itself.  Each client times
:func:`common.reference_s` when it starts and right before each cold
submit; cold jobs and re-submits are divided by it.

The server is stopped with SIGTERM; its peak RSS comes from ``wait4``,
and a non-zero exit or a leftover ``/dev/shm/psm_*`` segment is an
error.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    SETUP_REPEATS,
    child_env,
    median,
    percentile,
    probe_layers,
    probe_totals,
    psm_segments,
    reference_s,
    stage_layers,
)

K = 8
ALGO = "DBH"
CLIENTS = 2
COLD_PER_CLIENT = 10
#: cumulative shares of the request mix (the rest is /healthz)
MIX = (("edge", 0.44), ("vertex", 0.88), ("resubmit", 0.96))
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 60


def call(port: int, method: str, path: str, body=None):
    """One HTTP request; returns ``(status, body bytes, milliseconds)``."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if data else {}
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        blob = response.read()
    finally:
        conn.close()
    return response.status, blob, (time.perf_counter() - start) * 1e3


def call_json(port: int, method: str, path: str, body=None):
    """:func:`call` for a JSON answer; returns ``(status, doc, ms)``."""
    status, blob, ms = call(port, method, path, body)
    return status, json.loads(blob), ms


class Server:
    """A ``repro serve`` subprocess, started until ``/healthz`` answers."""

    def __init__(self, cache: Path, workdir: Path) -> None:
        self.shm_before = psm_segments()
        self.log = open(workdir / f"{cache.name}.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache", str(cache)],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=child_env(workdir), cwd=workdir,
        )
        self.peak_rss_mb = None
        try:
            self.port = self._await_listening()
            self._await_healthz()
        except BaseException:
            self.kill()
            raise

    def _await_listening(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=1.0):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    url = line.split("listening on http://", 1)[1].split()[0]
                    return int(url.rsplit(":", 1)[1].rstrip("/"))
        raise RuntimeError("repro serve never reported its port")

    def _await_healthz(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                if call(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError("repro serve never answered /healthz")

    def stop(self) -> list[str]:
        """SIGTERM, drain, reap with ``wait4``; returns every problem seen."""
        if self.proc.returncode is not None:
            return [f"server had already exited {self.proc.returncode}"]
        os.kill(self.proc.pid, signal.SIGTERM)
        tail = self.proc.stdout.read()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.kill()
                return ["server did not exit after SIGTERM"]
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._close_files()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        problems = []
        if self.proc.returncode != 0:
            problems.append(f"server exited {self.proc.returncode}")
        if "shutdown complete" not in tail:
            problems.append("server never reported 'shutdown complete'")
        leaked = psm_segments() - self.shm_before
        if leaked:
            problems.append(f"leftover shared memory: {sorted(leaked)}")
        return problems

    def kill(self) -> None:
        """Last resort: kill and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._close_files()

    def close(self) -> None:
        """Close a set-up that is not used (its problems count too)."""
        problems = self.stop()
        if problems:
            raise RuntimeError("; ".join(problems))

    def _close_files(self) -> None:
        self.proc.stdout.close()
        self.log.close()


class Reference:
    """What every answer is checked against: the benchmark's own run."""

    def __init__(self, graph, parts, port: int, payload: dict,
                 job_id: str) -> None:
        from inputs import vertex_cover

        self.edges = graph.edges
        self.parts = parts
        self.cover = vertex_cover(graph.edges, parts, K, graph.num_vertices)
        self.port = port
        self.payload = payload
        self.job_id = job_id


class Client(threading.Thread):
    """One closed-loop client: the next request only after an answer."""

    def __init__(self, index: int, ref: Reference, seed: int,
                 start: float, seconds: float) -> None:
        super().__init__(name=f"perfbench-client-{index}")
        self.ref = ref
        self.rng = random.Random(seed * 1000 + index)
        self.start_at = start
        self.seconds = seconds
        slot = seconds / COLD_PER_CLIENT
        offset = (index + 1) / (CLIENTS + 1)
        self.cold_due = [
            (start + (j + offset) * slot, 1 + index * COLD_PER_CLIENT + j)
            for j in range(COLD_PER_CLIENT)
        ]
        self.finished = [ref.payload]
        self.ms = {"edge": [], "vertex": [], "resubmit": [], "healthz": []}
        self.cold_s: list[float] = []
        self.ref_s: list[float] = []
        self.resubmit_rel: list[float] = []
        self.cold_ids: list[str] = []
        self.attempted = 0
        self.completed = 0
        self.errors: list[str] = []

    def run(self) -> None:
        self.ref_s.append(reference_s())
        while True:
            now = time.perf_counter()
            if self.cold_due and now >= self.cold_due[0][0]:
                self._op("cold", self.cold_due.pop(0)[1])
                continue
            if not self.cold_due and now - self.start_at >= self.seconds:
                return
            draw = self.rng.random()
            kind = next((k for k, share in MIX if draw < share), "healthz")
            self._op(kind, None)

    def _op(self, kind: str, arg) -> None:
        self.attempted += 1
        try:
            problem = getattr(self, f"_{kind}")(arg)
        except (OSError, http.client.HTTPException, ValueError,
                KeyError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.errors.append(f"{kind}: {problem}")
        else:
            self.completed += 1

    def _edge(self, _):
        eid = self.rng.randrange(len(self.ref.parts))
        status, doc, ms = call_json(
            self.ref.port, "GET", f"/jobs/{self.ref.job_id}/edge/{eid}"
        )
        self.ms["edge"].append(ms)
        if status != 200 or doc["part"] != int(self.ref.parts[eid]):
            return f"edge {eid}: {status} {doc}"
        return None

    def _vertex(self, _):
        row = self.rng.randrange(len(self.ref.edges))
        vertex = int(self.ref.edges[row, self.rng.randrange(2)])
        status, doc, ms = call_json(
            self.ref.port, "GET", f"/jobs/{self.ref.job_id}/vertex/{vertex}"
        )
        self.ms["vertex"].append(ms)
        want = [int(p) for p in self.ref.cover[:, vertex].nonzero()[0]]
        if status != 200 or doc["parts"] != want:
            return f"vertex {vertex}: {status} {doc}, expected {want}"
        return None

    def _resubmit(self, _):
        payload = self.rng.choice(self.finished)
        status, doc, ms = call_json(self.ref.port, "POST", "/jobs", payload)
        self.ms["resubmit"].append(ms)
        self.resubmit_rel.append(ms / 1e3 / self.ref_s[-1])
        if status != 200 or not doc["deduped"] or doc["state"] != "succeeded":
            return f"resubmit: {status} {doc}"
        return None

    def _healthz(self, _):
        status, doc, ms = call_json(self.ref.port, "GET", "/healthz")
        self.ms["healthz"].append(ms)
        return None if status == 200 else f"healthz: {status} {doc}"

    def _cold(self, order_seed: int):
        payload = dict(self.ref.payload, seed=order_seed)
        self.ref_s.append(reference_s())
        start = time.perf_counter()
        status, doc, _ = call_json(self.ref.port, "POST", "/jobs", payload)
        if status != 201:
            return f"cold submit: {status} {doc}"
        job_id = doc["id"]
        status, _, _ = call(self.ref.port, "GET", f"/jobs/{job_id}/events")
        self.cold_s.append(time.perf_counter() - start)
        status, doc, _ = call_json(self.ref.port, "GET", f"/jobs/{job_id}")
        if status != 200 or doc["state"] != "succeeded":
            return f"cold job {job_id}: {status} {doc}"
        self.cold_ids.append(job_id)
        self.finished.append(payload)
        return None


def _wait_succeeded(port: int, job_id: str) -> dict:
    """Follow a job's events to the end; return its status document."""
    call(port, "GET", f"/jobs/{job_id}/events")
    status, doc, _ = call_json(port, "GET", f"/jobs/{job_id}")
    if status != 200 or doc["state"] != "succeeded":
        raise RuntimeError(f"job {job_id} ended {doc}")
    return doc


def _stage_records(port: int, job_id: str) -> list[dict]:
    """The job's progress events as span records (stage spans only)."""
    status, blob, _ = call(port, "GET", f"/jobs/{job_id}/events?wait=0")
    records = []
    for line in blob.decode("utf-8").splitlines():
        event = json.loads(line)
        if event.get("event") == "span" and event["span"] != "partition":
            records.append({
                "type": "span", "name": event["span"],
                "dur_s": event.get("dur_s", 0.0),
                "attrs": event.get("attrs", {}),
                "counters": event.get("counters", {}),
            })
    return records


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: int, workdir: Path) -> dict:
    """One run of ``serve-mixed``; returns the outcome dict run.py prints."""
    from inputs import check_assignment, timed_setups
    from repro.obs.tracer import NULL_TRACER, Tracer, get_tracer
    from repro.runtime.api import run_job
    from repro.runtime.spec import make_job

    counter = itertools.count()

    def start(manifest: Path) -> Server:
        return Server(workdir / f"cache-{next(counter)}", workdir)

    graph, manifest, record, server, setups = timed_setups(
        seed, scale, workdir, 1 if trace else SETUP_REPEATS, start
    )
    errors: list[str] = []
    try:
        payload = {"source": str(manifest), "algo": ALGO, "k": K}
        spec = make_job(ALGO, str(manifest), K)
        if get_tracer() is not NULL_TRACER:
            raise RuntimeError("the reference job would run with tracing on")
        reference = run_job(spec)
        status, doc, _ = call_json(server.port, "POST", "/jobs", payload)
        if status != 201 or doc["content_hash"] != spec.content_hash():
            raise RuntimeError(f"first submit answered {status} {doc}")
        served = _wait_succeeded(server.port, doc["id"])["result"]
        errors += check_assignment(
            graph, reference.parts, K, served["loads"],
            served["replication_factor"], served["edge_balance"],
        )
        ref = Reference(graph, reference.parts, server.port, payload,
                        doc["id"])
        for path in (f"/jobs/{ref.job_id}/edge/0",
                     f"/jobs/{ref.job_id}/vertex/{int(graph.edges[0, 0])}"):
            call(server.port, "GET", path)  # attach + build the cover

        began = time.perf_counter()
        clients = [Client(i, ref, seed, began, seconds)
                   for i in range(CLIENTS)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        elapsed = time.perf_counter() - began

        _, health, _ = call_json(server.port, "GET", "/healthz")
        _, listing, _ = call_json(server.port, "GET", "/jobs")
        stage_records = _stage_records(server.port, ref.job_id)
    finally:
        errors += server.stop()

    for client in clients:
        errors += client.errors
    merged = {kind: [ms for c in clients for ms in c.ms[kind]]
              for kind in clients[0].ms}
    lookups = merged["edge"] + merged["vertex"]
    cold_s = [s for c in clients for s in c.cold_s]
    refs = [s for c in clients for s in c.ref_s]
    # each client's first reference precedes its loop, the others
    # precede one cold submit each
    cold_rel = [s / ref for c in clients
                for s, ref in zip(c.cold_s, c.ref_s[1:])]
    resubmit_rel = [r for c in clients for r in c.resubmit_rel]
    attempted = sum(c.attempted for c in clients)
    completed = sum(c.completed for c in clients)
    cold_ids = {i for c in clients for i in c.cold_ids}
    jobs = {job["id"]: job for job in listing["jobs"]}
    for job in listing["jobs"]:
        if job["id"] in cold_ids and (
            job["result"]["replication_factor"] != served["replication_factor"]
            or job["result"]["loads"] != served["loads"]
        ):
            errors.append(f"cold job {job['id']} differs from the reference")
    if health["executions"] != 1 + CLIENTS * COLD_PER_CLIENT:
        errors.append(f"{health['executions']} executions")
    if not lookups or not merged["resubmit"]:
        raise RuntimeError("--seconds left no time for lookups and "
                           "re-submits between the cold submits")
    lookup_p50 = percentile(lookups, 50)
    lookup_p99 = percentile(lookups, 99)
    outcome = {
        "input": record,
        "spec": spec.to_dict(),
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "raw": {"cold_s": cold_s, "setup_s": setups, "ref_s": refs},
        "printed": {
            "result_p50_ms": (median(cold_s) * 1e3, "ms", len(cold_s)),
            "submit_p50_ms": (median(merged["resubmit"]), "ms",
                              len(merged["resubmit"])),
            "lookup_p50_ms": (lookup_p50, "ms", len(lookups)),
            "lookup_p99_ms": (lookup_p99, "ms", len(lookups)),
            "serve_rps": (completed / elapsed, "1/s", completed),
            "reference_s": (median(refs), "s", len(refs)),
            "error_rate": (len(errors) / attempted, "ratio", attempted),
        },
    }
    if not trace:
        outcome["end_to_end"] = {
            "setup_s": (median(setups), "s", len(setups)),
            "partition_rel": (median(cold_rel), "ratio", len(cold_rel)),
            "submit_rel": (median(resubmit_rel), "ratio",
                           len(resubmit_rel)),
            "rf": (served["replication_factor"], "ratio", 1),
            "edge_balance": (served["edge_balance"], "ratio", 1),
            "peak_rss_mb": (server.peak_rss_mb, "MB", 1),
        }
        return outcome
    probe = Tracer(None)
    probe_layers(probe, spec, str(manifest), reference, workdir)
    layers = stage_layers(stage_records) | probe_totals(probe.drain())
    layers |= {
        "runtime.store.hits": health["store"]["hits"],
        "runtime.store.misses": health["store"]["misses"],
        "serve.app.healthz_p50_ms": median(merged["healthz"]),
        "serve.edge_p50_ms": median(merged["edge"]),
        "serve.vertex_p50_ms": median(merged["vertex"]),
        "serve.lookup_p50_ms": lookup_p50,
        "serve.lookup_p99_ms": lookup_p99,
        "serve.rps": completed / elapsed,
        "serve.queue.wait_ms": median([
            (jobs[i]["finished_at"] - jobs[i]["created_at"]
             - jobs[i]["result"]["runtime_s"]) * 1e3
            for i in cold_ids
        ]),
        "serve.queue.executions": health["executions"],
        "serve.queue.dedup_submits": sum(
            job["submits"] - 1 for job in listing["jobs"]
        ),
    }
    outcome["layers"] = layers
    return outcome
