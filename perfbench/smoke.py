#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny seeded scale.

Runs every workload once untraced and once traced on a 2**10-vertex
graph.  It checks that each result line has exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, that every
metric BENCHMARK.json names is present with its unit, that the
end-to-end values are positive, and that no output check failed.  It also checks that BENCHMARK.json and ``metrics.json`` agree,
and that the benchmark refuses to run (non-zero exit, no result line)
in a directory that holds only BENCHMARK.json and ``perfbench/``.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import HERE, METRICS, ROOT

SCALE = 10
#: long enough for serve-mixed to fit lookups between its 20 cold submits
SECONDS = 5
TIMEOUT_S = 180


def _fail(message: str) -> None:
    raise SystemExit(f"benchmark smoke failed: {message}")


def _run(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_manifest(bench: dict) -> None:
    """BENCHMARK.json lists exactly the metrics metrics.json defines."""
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in bench[section]}
        defined = METRICS[section]
        if list(listed) != list(defined):
            _fail(f"{section} names differ between BENCHMARK.json and "
                  "metrics.json")
        for name, entry in listed.items():
            for key in ("unit", "better", "bound"):
                if key in entry and entry[key] != defined[name][key]:
                    _fail(f"{name}: {key} differs from metrics.json")


def check_run(bench: dict, workload: str, trace: int) -> None:
    """One tiny run: exit 0, the result keys, every metric with its unit."""
    done = _run(ROOT, "--workload", workload, "--seed", "7",
                "--seconds", str(SECONDS), "--trace", str(trace),
                "--scale", str(SCALE))
    if done.returncode != 0:
        _fail(f"{workload} trace={trace} exited {done.returncode}:\n"
              f"{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        _fail(f"{workload}: outputs were not correct: {done.stdout}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        _fail(f"{workload}: attempted {result['attempted']!r}")
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[section]}
    got = result["metrics"]
    if set(got) != set(want):
        _fail(f"{workload} trace={trace}: metrics "
              f"{sorted(set(got) ^ set(want))} missing or extra")
    for name, unit in want.items():
        value = got[name]
        if value["unit"] != unit or not isinstance(
            value["value"], (int, float)
        ):
            _fail(f"{workload}: {name} reads {value}")
        if not trace and value["value"] <= 0:
            _fail(f"{workload}: end-to-end {name} is {value['value']}")
    print(f"ok  {workload:<12} trace={trace} "
          f"attempted={result['attempted']} metrics={len(got)}")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must refuse to run."""
    bare = ROOT / ".perfbench-run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run(bare, "--workload", "hep-budget", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        _fail("the benchmark ran without the program under test")
    print(f"ok  bare directory refused (exit {done.returncode})")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_manifest(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_run(bench, workload, trace)
    check_bare_directory()
    print("benchmark smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
