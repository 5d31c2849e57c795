#!/usr/bin/env python3
"""The repository benchmark: one seeded workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hep-budget --seed 104 \\
        --seconds 30 --trace 0

Workloads: ``hep-budget`` (sequential out-of-core HEP under a memory
budget), ``hdrf-mw2`` (informed HDRF on 2 shared-memory workers) and
``serve-mixed`` (a ``repro serve`` process under a closed loop of 2
clients).  All three read a seeded R-MAT graph (see ``inputs.py``),
built from ``--seed`` at the workload's scale (``common.SCALES``).

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  The human-readable report goes to stdout, a full record
(environment, input digest, every metric) to
``.perfbench-results/``, and the last stdout line is the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 1 when any output check failed and 2 when the
program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from common import METRICS, ROOT, SCALES, SRC, environment_record

WORKLOADS = ("hep-budget", "hdrf-mw2", "serve-mixed")


def _import_program() -> bool:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError:
        return False
    return Path(repro.__file__).resolve().is_relative_to(SRC)


def _run(workload: str, seed: int, seconds: float, trace: bool, scale: int,
         workdir: Path) -> dict:
    if workload == "serve-mixed":
        from serve_mixed import run_workload
    else:
        from batch import run_workload
    return run_workload(workload, seed, seconds, trace, scale, workdir)


def _metrics(outcome: dict, trace: bool) -> dict:
    """The result line's metrics: every name BENCHMARK.json lists."""
    if not trace:
        return {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in outcome["end_to_end"].items()
        }
    layers = outcome["layers"]
    return {
        name: {"value": layers.get(name, 0), "unit": spec["unit"]}
        for name, spec in METRICS["per_layer"].items()
    }


def _report(workload: str, outcome: dict, trace: bool) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    print(f"workload {workload}: input {json.dumps(outcome['input'])}")
    rows = dict(outcome.get("printed", {}))
    if not trace:
        rows |= outcome["end_to_end"]
    for name, (value, unit, samples) in sorted(rows.items()):
        print(f"  {name:<24} {value:>16.6g} {unit:<8} n={samples}")
    if trace:
        for name, value in sorted(outcome["layers"].items()):
            print(f"  {name:<32} {value:>16.6g}")
    for error in outcome["errors"]:
        print(f"  ERROR {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=104)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=None,
                        help="log2 of the vertex count (default: the "
                        "workload's own; smoke runs use ~10)")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = SCALES[args.workload]
    if not _import_program():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workdir = ROOT / ".perfbench-run" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        outcome = _run(
            args.workload, args.seed, args.seconds, trace, args.scale,
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _report(args.workload, outcome, trace)
    metrics = _metrics(outcome, trace)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment_record(), "input": outcome["input"],
        "spec": outcome.get("spec"), "errors": outcome["errors"],
        "raw": outcome.get("raw"),
        "metrics": metrics,
        "samples": {
            name: row[2] for name, row in {
                **outcome.get("end_to_end", {}), **outcome["printed"],
            }.items()
        },
        "printed": {
            name: {"value": row[0], "unit": row[1]}
            for name, row in outcome["printed"].items()
        },
    }
    print(f"environment {json.dumps(record['environment'])}")
    results = ROOT / ".perfbench-results"
    results.mkdir(exist_ok=True)
    (results / f"{workdir.name}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    correct = not outcome["errors"]
    print(json.dumps({
        "correct": correct, "attempted": outcome["attempted"],
        "failed": outcome["failed"], "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
