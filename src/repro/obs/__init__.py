"""Zero-dependency observability: structured tracing, counters, profiling.

The :mod:`repro.obs` package is the measurement substrate for the
streaming/worker stack.  It has two halves:

* :mod:`repro.obs.tracer` — a process-global :class:`Tracer` with
  nestable spans, typed counters, optional memory deltas, and a JSONL
  trace-file format.  Worker processes record spans into an in-memory
  collecting tracer and ship them to the coordinator in their final
  pipe frame, where :meth:`Tracer.adopt` re-parents them under the
  run's ``pool_run`` span — one coherent tree per run.
* :mod:`repro.obs.summary` — readers and aggregators for trace files:
  per-span-name rollups, total counters, and the phase attribution
  (spawn / pickle / pipe / compute / merge) behind
  ``benchmarks/bench_profile.py`` and ``repro trace summarize``.

The default process-global tracer is :data:`NULL_TRACER`, a no-op whose
spans are a single shared object, so instrumented hot paths cost almost
nothing when tracing is off.
"""

from __future__ import annotations

from repro.obs.bridge import SpanEventBridge, progress_event
from repro.obs.summary import (
    PROFILE_PHASES,
    aggregate_spans,
    format_summary,
    phase_breakdown,
    read_trace,
    total_counters,
    validate_profile_record,
)
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_VERSION,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "NULL_TRACER",
    "PROFILE_PHASES",
    "TRACE_VERSION",
    "NullTracer",
    "Span",
    "SpanEventBridge",
    "Tracer",
    "aggregate_spans",
    "progress_event",
    "format_summary",
    "get_tracer",
    "phase_breakdown",
    "read_trace",
    "set_tracer",
    "total_counters",
    "tracing",
    "validate_profile_record",
]
