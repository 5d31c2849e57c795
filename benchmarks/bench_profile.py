"""Bench: phase-attributed profile of the multi-worker partition path.

Answers the question PR 6's observability work exists for: *where does
the wall-clock of a ``partition --workers N`` run actually go* — process
spawn, pickling, pipe traffic, compute, or coordinator merge?  Each
configuration runs under a collecting :class:`~repro.obs.tracer.Tracer`
and is reduced to per-phase fractions with
:func:`~repro.obs.summary.phase_breakdown`.

The measured rows land in ``results/BENCH_profile.json`` (schema checked
by ``tools/check_profile_schema.py`` /
:func:`~repro.obs.summary.validate_profile_record`).  The acceptance bar
is coverage, not speed: the 2-worker run must attribute >= 90% of its
wall-clock to the named phases — anything less means a hot path lost its
span.

Like every ``bench_*`` module here, functions use the ``bench_`` prefix
so the tier-1 test run (default ``python_functions = test*``) never
collects them.  Run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_profile.py \
        -o python_functions=bench_
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.graph import datasets
from repro.obs.summary import (
    PROFILE_PHASES,
    phase_breakdown,
    validate_profile_record,
)
from repro.obs.tracer import Tracer, set_tracer
from repro.runtime import make_job, run_job
from repro.stream import write_sharded_edges

_K = 8
_BATCH = 16
_SHARDS = 4
_WORKER_COUNTS = (1, 2)
_RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    """The WI stand-in exported as a 4-shard manifest."""
    graph = datasets.load("WI")
    out = tmp_path_factory.mktemp("bench-profile") / "wi.manifest.json"
    return write_sharded_edges(graph, out, num_shards=_SHARDS)


def _traced_run(manifest, workers: int) -> dict:
    """One traced partition run, reduced to a profile row."""
    tracer = Tracer(None)  # collect mode: spans buffered, no file
    previous = set_tracer(tracer)
    try:
        run_job(make_job(
            "HDRF", manifest.path, _K, workers=workers, batch=_BATCH,
        ))
    finally:
        set_tracer(previous)
    breakdown = phase_breakdown(tracer.drain())
    return {
        "workers": workers,
        "wall_s": breakdown["wall_s"],
        "phases": breakdown["fractions"],
        "attributed": breakdown["attributed"],
    }


def bench_phase_profile(manifest, capsys):
    """Per-phase wall-clock attribution at 1 and 2 workers.

    Emits ``results/BENCH_profile.json``.  The 2-worker row must
    attribute >= 90% of its wall-clock across
    spawn/pickle/pipe/compute/merge — the coverage bar the span
    instrumentation is held to.
    """
    rows = [_traced_run(manifest, workers) for workers in _WORKER_COUNTS]
    record = {
        "bench": "profile",
        "graph": "WI",
        "edges": manifest.num_edges,
        "k": _K,
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }
    validate_profile_record(record)
    _RESULTS.mkdir(exist_ok=True)
    out = _RESULTS / "BENCH_profile.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    with capsys.disabled():
        print(f"\n[bench_profile] -> {out}")
        for row in rows:
            shares = "  ".join(
                f"{phase} {row['phases'][phase]:.3f}"
                for phase in (*PROFILE_PHASES, "other")
            )
            print(
                f"  {row['workers']} worker(s)  wall {row['wall_s']:.3f}s  "
                f"{shares}  attributed {row['attributed']:.1%}"
            )
    two_worker = next(r for r in rows if r["workers"] == 2)
    assert two_worker["attributed"] >= 0.9, (
        f"2-worker run attributed only {two_worker['attributed']:.1%} of "
        f"wall-clock to named phases; a hot path lost its span"
    )
