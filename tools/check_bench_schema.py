#!/usr/bin/env python
"""CI gate: validate the worker bench artifact's structure.

Checks ``results/BENCH_workers.json`` (``benchmarks/bench_workers.py``),
so a bench refactor that drops a row kind (the shared-memory worker
rows or the PR 8 cached-vs-cold artifact-store pair) or loses
``cpu_count`` fails the build instead of silently degrading the
artifact the README points at.

Dispatches on each record's ``"bench"`` tag, so future bench outputs
that reuse this shape can join it.

Usage::

    python tools/check_bench_schema.py results/BENCH_workers.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


class SchemaError(ValueError):
    """A bench record violated the expected structure."""


def _require(record: dict, key: str, kind, *, positive: bool = False):
    """Fetch ``record[key]`` asserting type (and sign for numbers)."""
    if key not in record:
        raise SchemaError(f"missing key {key!r}")
    value = record[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"{key!r} must be a number, got {value!r}")
    elif not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(
            f"{key!r} must be {kind.__name__}, got {value!r}"
        )
    if positive and value <= 0:
        raise SchemaError(f"{key!r} must be positive, got {value!r}")
    return value


def _validate_common(record: dict) -> list[dict]:
    """Checks shared by every bench record; returns the row list."""
    _require(record, "graph", str)
    _require(record, "edges", int, positive=True)
    k = _require(record, "k", int)
    if k < 2:
        raise SchemaError(f"'k' must be >= 2, got {k}")
    _require(record, "cpu_count", int, positive=True)
    rows = _require(record, "rows", list)
    if not rows:
        raise SchemaError("'rows' must be non-empty")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise SchemaError(f"rows[{i}] must be an object")
        try:
            _require(row, "driver", str)
            _require(row, "workers", int)
            _require(row, "seconds", float, positive=True)
        except SchemaError as exc:
            raise SchemaError(f"rows[{i}]: {exc}") from None
    return rows


def validate_workers_record(record: dict) -> None:
    """Validate a ``multi_worker_scaling`` record (bench_workers.py)."""
    rows = _validate_common(record)
    _require(record, "modeled_parallelism_4w", float, positive=True)
    protocols = set()
    for i, row in enumerate(rows):
        try:
            protocol = _require(row, "protocol", str)
            if protocol not in (
                "sequential", "shared-memory", "cold", "cached"
            ):
                raise SchemaError(f"unknown protocol {protocol!r}")
            _require(row, "rf", float, positive=True)
            _require(row, "speedup_vs_single_worker", float, positive=True)
        except SchemaError as exc:
            raise SchemaError(f"rows[{i}]: {exc}") from None
        protocols.add(protocol)
    for needed in ("sequential", "shared-memory", "cold", "cached"):
        if needed not in protocols:
            raise SchemaError(f"no {needed!r} row — a configuration was lost")
    by_protocol = {row["protocol"]: row for row in rows}
    if by_protocol["cached"]["rf"] != by_protocol["cold"]["rf"]:
        raise SchemaError(
            "the 'cached' row's rf differs from the 'cold' row's — the "
            "artifact store did not return the stored assignment"
        )


_VALIDATORS = {
    "multi_worker_scaling": validate_workers_record,
}


def main(argv: list[str]) -> int:
    """Validate each bench JSON path given on the command line."""
    if not argv:
        print(
            "usage: check_bench_schema.py BENCH_workers.json [...]",
            file=sys.stderr,
        )
        return 2
    for name in argv:
        path = Path(name)
        if not path.exists():
            print(f"error: {path}: no such file (did the bench run?)",
                  file=sys.stderr)
            return 1
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            print(f"error: {path}: not valid JSON: {exc}", file=sys.stderr)
            return 1
        bench = record.get("bench")
        validator = _VALIDATORS.get(bench)
        if validator is None:
            print(
                f"error: {path}: unknown bench tag {bench!r} "
                f"(expected one of {sorted(_VALIDATORS)})",
                file=sys.stderr,
            )
            return 1
        try:
            validator(record)
        except SchemaError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
        rows = record["rows"]
        print(f"{path}: ok ({bench}, cpu_count={record['cpu_count']}, "
              f"{len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
