#!/usr/bin/env python3
"""Black-box smoke test of ``python -m repro serve`` over a real socket.

CI runs this (job ``serve-smoke``) against a real server subprocess —
no in-process shortcuts, so it exercises exactly what an operator gets:

1. copy the input (a binary edge file, or an uncompressed shard
   manifest and its shards) into a temp dir, so the original is never
   edited, and wait until the copies are past the input-digest memo's
   2 s racy window,
2. start ``python -m repro serve`` on an ephemeral port and wait for
   the "listening on" line,
3. submit the same 2-worker job twice; the second submit must dedup
   onto the first (one execution, visible in the progress events) —
   its digest is a memo hit,
4. poll to completion and read the ``edge → part`` / ``healthz``
   endpoints,
5. rewrite the copy in place with the same length (swap the endpoints
   of the first edge of its first file of edges) and submit again: a
   new job (201, new key) runs, and ``healthz`` counts 2 executions,
6. submit the temp directory itself and require a 400,
7. SIGTERM the server and require a clean exit: status 0, the
   "shutdown complete" line, no process that inherited the server's
   environment still alive, and no ``psm_*`` shared-memory segment
   left in ``/dev/shm``.

Usage: python tools/serve_smoke.py <edge-file-or-manifest> [options]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
_MARKER = "REPRO_SERVE_SMOKE"
#: the input-digest memo's racy window (2 s) plus margin
_SETTLE_S = 2.5


def _fail(message: str) -> None:
    """Abort the smoke run with a named violated expectation."""
    raise SystemExit(f"serve smoke failed: {message}")


def _request(base: str, method: str, path: str, body=None):
    """One JSON request; returns ``(status, parsed-or-raw body)``."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            blob = resp.read()
            status = resp.status
    except urllib.error.HTTPError as exc:
        blob = exc.read()
        status = exc.code
    try:
        return status, json.loads(blob)
    except ValueError:
        return status, blob


def _psm_segments() -> set:
    """Names of live ``psm_*`` shared-memory segments."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {p.name for p in shm.glob("psm_*")}


def _marker_pids(marker: bytes) -> list:
    """PIDs of processes whose environment carries the smoke marker."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            env = (entry / "environ").read_bytes()
        except OSError:
            continue
        if marker in env:
            pids.append(int(entry.name))
    return pids


def _copy_input(source: Path, dest: Path) -> tuple:
    """Copy the input into ``dest``; returns ``(copy, file to rewrite)``.

    A manifest's shards are copied next to it under their base names.
    The file to rewrite is the edge file itself, or the first shard.
    """
    if not source.name.endswith(".json"):
        copy = dest / source.name
        shutil.copyfile(source, copy)
        return copy, copy
    manifest = json.loads(source.read_text(encoding="utf-8"))
    if manifest.get("compression") is not None:
        _fail("an in-place rewrite needs an uncompressed manifest")
    for entry in manifest["shards"]:
        shard = source.parent / entry["path"]
        entry["path"] = shard.name
        shutil.copyfile(shard, dest / shard.name)
    copy = dest / source.name
    copy.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return copy, dest / manifest["shards"][0]["path"]


def _swap_first_edge(path: Path) -> None:
    """Swap the endpoints of the file's first edge, in place."""
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        pair = handle.read(8)
        handle.seek(0)
        handle.write(pair[4:] + pair[:4])
    if path.stat().st_size != size:
        _fail(f"rewriting {path} changed its length")


def _wait_finished(base: str, job_id: str) -> dict:
    """Poll ``job_id`` until it is terminal; fail unless it succeeded."""
    deadline = time.monotonic() + 300
    while True:
        status, doc = _request(base, "GET", f"/jobs/{job_id}")
        if status != 200:
            _fail(f"poll returned {status}")
        if doc["state"] in ("succeeded", "failed", "cancelled"):
            break
        if time.monotonic() > deadline:
            _fail("job did not finish within 300s")
        time.sleep(0.2)
    if doc["state"] != "succeeded":
        _fail(f"job finished {doc['state']}: {doc.get('error')}")
    return doc


def _start_server(source: Path, cache: Path, env: dict) -> tuple:
    """Spawn the server; returns ``(process, base_url)``."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--cache", str(cache),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(cache.parent),
    )
    deadline = time.monotonic() + 60
    while True:
        if time.monotonic() > deadline:
            proc.kill()
            _fail("server never printed its listening line")
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            _fail(f"server exited early with status {proc.returncode}")
        print(f"[server] {line}", end="", flush=True)
        if "listening on http://" in line:
            url = line.split("listening on ", 1)[1].split(" ", 1)[0]
            return proc, url.rstrip("/")


def main(argv) -> int:
    """Run the scripted client against a fresh server subprocess."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", type=Path)
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--algo", default="HDRF")
    args = parser.parse_args(argv)

    marker_value = f"smoke-{os.getpid()}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    env[_MARKER] = marker_value
    marker = f"{_MARKER}={marker_value}".encode("utf-8")
    shm_before = _psm_segments()

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as scratch:
        inputs = Path(scratch) / "input"
        inputs.mkdir()
        source, rewrite = _copy_input(args.source.resolve(), inputs)
        settled = time.monotonic() + _SETTLE_S
        proc, base = _start_server(
            args.source, Path(scratch) / "cache", env
        )
        try:
            time.sleep(max(0.0, settled - time.monotonic()))
            payload = {
                "source": str(source),
                "algo": args.algo, "k": args.k, "workers": args.workers,
            }
            status, first = _request(base, "POST", "/jobs", payload)
            if status != 201:
                _fail(f"first submit returned {status}: {first}")
            job_id = first["id"]
            status, second = _request(base, "POST", "/jobs", payload)
            if status != 200 or not second.get("deduped"):
                _fail(f"second submit did not dedup: {status} {second}")
            if second["id"] != job_id:
                _fail("dedup returned a different job id")
            _wait_finished(base, job_id)

            status, blob = _request(
                base, "GET", f"/jobs/{job_id}/events?wait=0"
            )
            events = [
                json.loads(line)
                for line in blob.decode("utf-8").splitlines() if line
            ]
            partitions = [
                e for e in events
                if e.get("event") == "span" and e.get("span") == "partition"
            ]
            dedups = [e for e in events if e.get("event") == "dedup"]
            if len(partitions) != 1:
                _fail(f"{len(partitions)} partition spans for 2 submits")
            if not dedups:
                _fail("no dedup progress event recorded")

            status, edge = _request(base, "GET", f"/jobs/{job_id}/edge/0")
            if status != 200 or not 0 <= edge["part"] < args.k:
                _fail(f"edge lookup answered {status} {edge}")
            status, health = _request(base, "GET", "/healthz")
            if status != 200 or health["executions"] != 1:
                _fail(f"healthz answered {status} {health}")

            # Same length, new bytes: the memoized digest must not hold.
            _swap_first_edge(rewrite)
            status, third = _request(base, "POST", "/jobs", payload)
            if status != 201 or third["key"] == first["key"]:
                _fail(f"submit after an in-place rewrite: {status} {third}")
            _wait_finished(base, third["id"])
            status, health = _request(base, "GET", "/healthz")
            if status != 200 or health["executions"] != 2:
                _fail(f"healthz after the rewrite: {status} {health}")

            status, doc = _request(
                base, "POST", "/jobs", dict(payload, source=str(inputs))
            )
            if status != 400:
                _fail(f"submitting a directory answered {status}: {doc}")

            proc.send_signal(signal.SIGTERM)
            try:
                tail = proc.communicate(timeout=60)[0]
            except subprocess.TimeoutExpired:
                proc.kill()
                _fail("server did not exit within 60s of SIGTERM")
            for line in tail.splitlines():
                print(f"[server] {line}", flush=True)
            if proc.returncode != 0:
                _fail(f"server exited {proc.returncode} after SIGTERM")
            if "shutdown complete" not in tail:
                _fail("server never printed 'shutdown complete'")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    deadline = time.monotonic() + 10
    while _marker_pids(marker) and time.monotonic() < deadline:
        time.sleep(0.1)
    orphans = _marker_pids(marker)
    if orphans:
        _fail(f"processes outlived the server: {orphans}")
    leaked = _psm_segments() - shm_before
    if leaked:
        _fail(f"leaked shared-memory segments: {sorted(leaked)}")

    print(
        f"serve smoke: ok (2 executions, {len(dedups)} dedup hit(s), "
        "rewrite re-keyed, directory refused, clean SIGTERM shutdown, "
        "no orphans, no shm leaks)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
