"""Trace-file readers, rollups, and phase-attributed profiling.

This module turns raw JSONL traces (written by
:class:`repro.obs.tracer.Tracer`) into the three artifacts users see:

* :func:`aggregate_spans` / :func:`total_counters` — per-span-name and
  per-counter rollups,
* :func:`phase_breakdown` — attribution of a run's wall-clock to the
  named phases ``spawn`` / ``pickle`` / ``pipe`` / ``compute`` /
  ``merge`` (plus an unattributed ``other`` remainder),
* :func:`format_summary` — the table printed by
  ``repro trace summarize``.

:func:`validate_profile_record` is the schema check shared by
``benchmarks/bench_profile.py``, ``tools/check_profile_schema.py`` and
the tier-1 tests, so the ``results/BENCH_profile.json`` structure can
never silently drift.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from typing import Any

from repro.errors import TraceFormatError

__all__ = [
    "PROFILE_PHASES",
    "aggregate_spans",
    "format_summary",
    "phase_breakdown",
    "read_trace",
    "total_counters",
    "validate_profile_record",
]

PROFILE_PHASES = ("spawn", "pickle", "pipe", "compute", "merge")
"""Named phases a profile attributes wall-clock time to."""

#: Coordinator spans whose duration (minus any nested pool spans) is
#: single-process compute: scans, tau selection, splitting, phase one,
#: sequential streaming, spill dealing, and the extsort stages.
_SEQ_COMPUTE = frozenset({
    "count_pass",
    "metrics_pass",
    "select_tau",
    "split_pass",
    "phase_one",
    "stream_pass",
    "split_spill",
    "run_generation",
    "collapse_runs",
    "merge_runs",
    "finalize",
})

#: Span names that represent multi-process machinery nested inside a
#: sequential-compute span (their time must not be double counted).
_POOL_SPANS = frozenset({"pool_spawn", "pool_run"})


def read_trace(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Parse a JSONL trace file into its list of records.

    Raises :class:`~repro.errors.TraceFormatError` on unparseable lines
    or a missing/foreign header record.
    """
    source = Path(path)
    records: list[dict[str, Any]] = []
    try:
        text = source.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"cannot read trace {source}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{source}:{lineno}: not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict) or "type" not in record:
            raise TraceFormatError(
                f"{source}:{lineno}: record is not an object with a 'type'"
            )
        records.append(record)
    if not records or records[0].get("type") != "trace":
        raise TraceFormatError(
            f"{source}: missing 'trace' header record (not a trace file?)"
        )
    return records


def _spans(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The span records of a trace, in emission order."""
    return [r for r in records if r.get("type") == "span"]


def aggregate_spans(records: list[dict[str, Any]]) -> dict[str, dict]:
    """Per-span-name rollup: count, total/mean duration, memory delta."""
    rollup: dict[str, dict[str, float]] = {}
    for record in _spans(records):
        entry = rollup.setdefault(
            record["name"],
            {"count": 0, "total_s": 0.0, "mem_delta_bytes": 0},
        )
        entry["count"] += 1
        entry["total_s"] += record.get("dur_s", 0.0)
        entry["mem_delta_bytes"] += record.get("mem_delta_bytes", 0)
    for entry in rollup.values():
        entry["mean_s"] = entry["total_s"] / entry["count"]
    return rollup


def total_counters(records: list[dict[str, Any]]) -> dict[str, float]:
    """Sum of every counter across all spans of a trace."""
    totals: dict[str, float] = {}
    for record in _spans(records):
        for key, value in (record.get("counters") or {}).items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _wall_seconds(spans: list[dict[str, Any]]) -> float:
    """Wall-clock of a trace: the root partition span(s), else all roots."""
    roots = [s for s in spans if s.get("parent") is None]
    named = [s for s in roots if s["name"] in ("partition", "extsort")]
    chosen = named or roots
    return float(sum(s.get("dur_s", 0.0) for s in chosen))


def phase_breakdown(
    records: list[dict[str, Any]], wall_s: float | None = None,
) -> dict[str, Any]:
    """Attribute a trace's wall-clock to the :data:`PROFILE_PHASES`.

    The attribution rules mirror the span taxonomy (see
    ``docs/observability.md``):

    * ``pool_spawn`` spans → **spawn**; coordinator-side ``shm_attach``
      spans (segment create/attach, no ``worker`` attr) are pool setup
      too → **spawn** (worker-side attaches overlap the coordinator's
      recv wait and are already apportioned there);
    * ``superstep_commit`` (the shared-memory protocol's double-buffer
      fold+flip, aggregated over the run) → **merge**;
    * ``pool_run`` spans carry coordinator-side counters: ``send_s`` →
      **pipe**, ``merge_s`` → **merge**, ``encode_s`` → **pickle**, and
      ``recv_wait_s`` (time the coordinator blocked on worker frames)
      is apportioned between **compute** / **pickle** / **pipe** using
      the adopted workers' own ``busy_s`` / ``encode_s`` / ``send_s``
      shares (all to **pipe** when workers reported nothing);
    * the ``worker_stream`` span of the lane the coordinator streams
      itself (``side`` attr ``coordinator``) → its ``busy_s`` to
      **compute**: coordinator wall-clock, not part of any recv wait;
    * sequential coordinator stages (counting/metrics scans, tau
      selection, splitting, phase one, streaming, spill dealing,
      extsort stages) → **compute**, minus any nested pool or
      ``shm_attach`` spans.

    Returns ``{"wall_s", "seconds", "fractions", "attributed"}`` where
    ``fractions`` includes an ``other`` remainder.
    """
    spans = _spans(records)
    if wall_s is None:
        wall_s = _wall_seconds(spans)
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[span["parent"]].append(span)
    seconds = dict.fromkeys(PROFILE_PHASES, 0.0)
    for span in spans:
        name = span["name"]
        counters = span.get("counters") or {}
        if name == "pool_spawn":
            seconds["spawn"] += span.get("dur_s", 0.0)
        elif name == "shm_attach":
            if "worker" not in (span.get("attrs") or {}):
                seconds["spawn"] += span.get("dur_s", 0.0)
        elif name == "superstep_commit":
            seconds["merge"] += span.get("dur_s", 0.0)
        elif name == "pool_run":
            seconds["pipe"] += counters.get("send_s", 0.0)
            seconds["merge"] += counters.get("merge_s", 0.0)
            seconds["pickle"] += counters.get("encode_s", 0.0)
            recv_wait = counters.get("recv_wait_s", 0.0)
            busy = encode = send = 0.0
            for child in children[span["id"]]:
                if not child["name"].startswith("worker_"):
                    continue
                worker_counters = child.get("counters") or {}
                if (child.get("attrs") or {}).get("side") == "coordinator":
                    seconds["compute"] += worker_counters.get("busy_s", 0.0)
                    continue
                busy += worker_counters.get("busy_s", 0.0)
                encode += worker_counters.get("encode_s", 0.0)
                send += worker_counters.get("send_s", 0.0)
            active = busy + encode + send
            if active > 0:
                seconds["compute"] += recv_wait * busy / active
                seconds["pickle"] += recv_wait * encode / active
                seconds["pipe"] += recv_wait * send / active
            else:
                seconds["pipe"] += recv_wait
        elif name in _SEQ_COMPUTE:
            # Subtract direct children that are themselves accounted
            # (nested pools, or nested sequential stages like
            # split_spill inside stream_pass) so no second is counted
            # twice.
            nested = sum(
                child.get("dur_s", 0.0)
                for child in children[span["id"]]
                if child["name"] in _POOL_SPANS
                or child["name"] == "shm_attach"
                or child["name"] in _SEQ_COMPUTE
            )
            seconds["compute"] += max(span.get("dur_s", 0.0) - nested, 0.0)
    attributed_s = sum(seconds.values())
    fractions = {
        phase: (value / wall_s if wall_s > 0 else 0.0)
        for phase, value in seconds.items()
    }
    fractions["other"] = max(1.0 - sum(fractions.values()), 0.0)
    return {
        "wall_s": wall_s,
        "seconds": seconds,
        "fractions": fractions,
        "attributed": (attributed_s / wall_s) if wall_s > 0 else 0.0,
    }


def _format_table(header: list[str], rows: list[list[str]]) -> list[str]:
    """Left-align ``rows`` under ``header`` (first column), right-align rest."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: list[str]) -> str:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i + 1]) for i, cell in enumerate(row[1:])]
        return "  ".join(cells).rstrip()
    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def _si_bytes(n: float) -> str:
    """Human-readable signed byte count."""
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{sign}{n:.1f}{unit}" if unit != "B" else f"{sign}{n:.0f}B"
        n /= 1024
    return f"{sign}{n:.1f}GiB"  # pragma: no cover - loop always returns


def format_summary(records: list[dict[str, Any]]) -> str:
    """Render the per-span / counter / phase tables for a trace."""
    spans = _spans(records)
    header = records[0] if records else {}
    wall = _wall_seconds(spans)
    lines = [
        f"trace: {len(spans)} spans, wall {wall:.3f}s, "
        f"memory probe: {header.get('memory') or 'off'}"
    ]
    rollup = aggregate_spans(records)
    has_mem = header.get("memory") is not None
    span_header = ["span", "count", "total_s", "mean_s"]
    if has_mem:
        span_header.append("mem_delta")
    span_rows = []
    for name, entry in sorted(
        rollup.items(), key=lambda item: -item[1]["total_s"]
    ):
        row = [
            name,
            str(entry["count"]),
            f"{entry['total_s']:.4f}",
            f"{entry['mean_s']:.4f}",
        ]
        if has_mem:
            row.append(_si_bytes(entry["mem_delta_bytes"]))
        span_rows.append(row)
    if span_rows:
        lines.append("")
        lines.extend(_format_table(span_header, span_rows))
    counters = total_counters(records)
    if counters:
        lines.append("")
        counter_rows = [
            [name, f"{value:.4f}" if isinstance(value, float) else str(value)]
            for name, value in sorted(counters.items())
        ]
        lines.extend(_format_table(["counter", "total"], counter_rows))
    breakdown = phase_breakdown(records, wall_s=wall)
    lines.append("")
    lines.append("phase attribution (fraction of wall):")
    fractions = breakdown["fractions"]
    lines.append(
        "  "
        + "  ".join(
            f"{phase} {fractions[phase]:.3f}"
            for phase in (*PROFILE_PHASES, "other")
        )
    )
    lines.append(f"  attributed: {breakdown['attributed']:.1%}")
    return "\n".join(lines)


def validate_profile_record(record: Any) -> None:
    """Validate the ``results/BENCH_profile.json`` structure.

    Raises :class:`~repro.errors.TraceFormatError` naming the first
    violated constraint; returns ``None`` when the record conforms.
    """
    def fail(message: str) -> None:
        raise TraceFormatError(f"BENCH_profile record: {message}")

    if not isinstance(record, dict):
        fail("top level is not an object")
    if record.get("bench") != "profile":
        fail("'bench' must be the string 'profile'")
    for key in ("graph", "edges", "k", "cpu_count", "rows"):
        if key not in record:
            fail(f"missing required key {key!r}")
    if not isinstance(record["cpu_count"], int) or record["cpu_count"] < 1:
        fail("'cpu_count' must be a positive integer")
    if not isinstance(record["edges"], int) or record["edges"] < 0:
        fail("'edges' must be a non-negative integer")
    rows = record["rows"]
    if not isinstance(rows, list) or not rows:
        fail("'rows' must be a non-empty list")
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            fail(f"rows[{index}] is not an object")
        for key in ("workers", "wall_s", "phases", "attributed"):
            if key not in row:
                fail(f"rows[{index}] missing required key {key!r}")
        if not isinstance(row["workers"], int) or row["workers"] < 1:
            fail(f"rows[{index}]['workers'] must be a positive integer")
        if not isinstance(row["wall_s"], (int, float)) or row["wall_s"] <= 0:
            fail(f"rows[{index}]['wall_s'] must be a positive number")
        phases = row["phases"]
        if not isinstance(phases, dict):
            fail(f"rows[{index}]['phases'] is not an object")
        for phase in (*PROFILE_PHASES, "other"):
            value = phases.get(phase)
            if not isinstance(value, (int, float)) or value < 0:
                fail(
                    f"rows[{index}]['phases'][{phase!r}] must be a "
                    "non-negative number"
                )
        attributed = row["attributed"]
        if not isinstance(attributed, (int, float)) or not (
            0.0 <= attributed <= 1.5
        ):
            fail(f"rows[{index}]['attributed'] must be a number in [0, 1.5]")
