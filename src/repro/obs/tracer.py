"""Nestable-span tracer with JSONL output and a no-op default.

Design notes
------------

A :class:`Tracer` records **spans** — named, timed regions with
arbitrary JSON attributes, additive counters, and (optionally) a memory
delta.  Spans nest: the innermost open span on the current thread is
the parent of the next one opened.  Each finished span becomes one JSON
record; a tracer either appends records to a JSONL file (coordinator
mode, ``path=...``) or buffers them in memory (worker/collect mode,
``path=None``) so a forked worker can :meth:`~Tracer.drain` its records
and ship them over a pipe to the coordinator, which re-parents them
with :meth:`~Tracer.adopt`.

Timestamps: ``start`` is wall-clock epoch seconds (``time.time``) so
records from different processes line up on one axis, while durations
come from ``time.perf_counter`` for resolution.

The process-global tracer defaults to :data:`NULL_TRACER` whose
``span()`` returns one shared no-op handle — instrumentation in hot
paths reduces to an attribute lookup and a no-op context manager when
tracing is off.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ConfigurationError

__all__ = [
    "NULL_TRACER",
    "TRACE_VERSION",
    "MEMORY_MODES",
    "NullTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "install_collecting_tracer",
    "set_tracer",
    "tracing",
]

TRACE_VERSION = 1
"""Format version stamped into the trace header record."""

MEMORY_MODES = ("tracemalloc", "rss")
"""Accepted values for the tracer's per-span memory probe."""


def _rss_bytes() -> int:
    """Best-effort resident-set size of this process in bytes."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except Exception:  # pragma: no cover - platform fallback of a fallback
        return 0


def _json_default(value: Any) -> Any:
    """Coerce non-JSON values (numpy scalars, paths) for trace records."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except Exception:  # pragma: no cover - exotic .item()
            pass
    return str(value)


class Span:
    """One nestable timed region; used as a context manager.

    Obtained from :meth:`Tracer.span`; entering the span assigns its id
    and parent from the tracer's per-thread stack, exiting records the
    duration (and memory delta when the tracer has a memory probe) and
    emits the span's JSON record.
    """

    __slots__ = ("_tracer", "record", "_t0", "_mem0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        """Bind an unstarted span to ``tracer``; use ``with`` to run it."""
        self._tracer = tracer
        self.record: dict[str, Any] = {
            "type": "span",
            "id": 0,
            "parent": None,
            "name": name,
            "start": 0.0,
            "dur_s": 0.0,
            "attrs": attrs,
            "counters": {},
        }
        self._t0 = 0.0
        self._mem0 = 0

    def __enter__(self) -> "Span":
        """Start the clock and push this span onto the nesting stack."""
        self._tracer._begin(self)
        self._mem0 = self._tracer._mem_probe()
        self.record["start"] = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        """Stop the clock, record memory delta, and emit the record."""
        self.record["dur_s"] = time.perf_counter() - self._t0
        if self._tracer.memory is not None:
            self.record["mem_delta_bytes"] = (
                self._tracer._mem_probe() - self._mem0
            )
        if exc_type is not None:
            self.record["attrs"]["error"] = exc_type.__name__
        self._tracer._finish(self)

    def add(self, counter: str, value: float) -> None:
        """Add ``value`` to the span's ``counter`` (created at zero)."""
        item = getattr(value, "item", None)
        if callable(item):
            value = item()
        counters = self.record["counters"]
        counters[counter] = counters.get(counter, 0) + value

    def set(self, **attrs: Any) -> None:
        """Merge extra attributes into the span record."""
        self.record["attrs"].update(attrs)


class _NullSpan:
    """Shared do-nothing span handle returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        """Return self; nothing is recorded."""
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        """Do nothing."""

    def add(self, counter: str, value: float) -> None:
        """Discard the counter update."""

    def set(self, **attrs: Any) -> None:
        """Discard the attributes."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer installed as the process-global default.

    Every method is a no-op and :meth:`span` always returns the same
    shared handle, so instrumented code pays only a method call and an
    empty ``with`` block when tracing is off.
    """

    enabled = False
    memory: str | None = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """Return the shared no-op span handle."""
        return _NULL_SPAN

    def adopt(self, records: list[dict], **attrs: Any) -> None:
        """Discard foreign records."""

    def drain(self) -> list[dict]:
        """Return an empty record list."""
        return []

    def close(self) -> dict[str, Any]:
        """Return an empty summary."""
        return {}

    @property
    def num_spans(self) -> int:
        """Always zero."""
        return 0


NULL_TRACER = NullTracer()
"""The shared no-op tracer; the process-global default."""


class Tracer:
    """Records nestable spans to a JSONL file or an in-memory buffer.

    Parameters
    ----------
    path:
        Destination JSONL file.  ``None`` selects *collect mode*: records
        are buffered in memory for :meth:`drain` — this is how worker
        processes trace without owning a file.
    memory:
        Optional per-span memory probe: ``"tracemalloc"`` (Python-heap
        delta; starts tracemalloc if needed) or ``"rss"`` (process
        resident-set delta from ``/proc``).
    """

    enabled = True

    def __init__(self, path: str | os.PathLike | None = None,
                 memory: str | None = None):
        """Open the trace file (or the in-memory buffer) and write the header."""
        if memory is not None and memory not in MEMORY_MODES:
            raise ConfigurationError(
                f"memory mode must be one of {MEMORY_MODES}, got {memory!r}"
            )
        self.path = Path(path) if path is not None else None
        self.memory = memory
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._records: list[dict[str, Any]] = []
        self._handle = None
        self._num_spans = 0
        self._names: dict[str, list[float]] = {}
        self._counters: dict[str, float] = {}
        if memory == "tracemalloc":
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
        if self.path is not None:
            self._handle = open(self.path, "w", encoding="utf-8")
            self._emit({
                "type": "trace",
                "version": TRACE_VERSION,
                "pid": os.getpid(),
                "created": time.time(),
                "memory": memory,
            })

    # -- span plumbing -------------------------------------------------

    def _stack(self) -> list[Span]:
        """Per-thread stack of open spans."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _mem_probe(self) -> int:
        """Current memory reading for the configured probe (0 when off)."""
        if self.memory == "tracemalloc":
            import tracemalloc

            return tracemalloc.get_traced_memory()[0]
        if self.memory == "rss":
            return _rss_bytes()
        return 0

    def _begin(self, span: Span) -> None:
        """Assign id/parent and push onto the nesting stack."""
        stack = self._stack()
        with self._lock:
            span.record["id"] = self._next_id
            self._next_id += 1
        span.record["parent"] = stack[-1].record["id"] if stack else None
        stack.append(span)

    def _finish(self, span: Span) -> None:
        """Pop the span and emit its finished record."""
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self._emit_span(span.record)

    def _emit_span(self, record: dict[str, Any]) -> None:
        """Emit a span record and fold it into the running aggregates."""
        with self._lock:
            self._num_spans += 1
            entry = self._names.setdefault(record["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += record["dur_s"]
            for key, value in record.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0) + value
            self._emit(record)

    def _emit(self, record: dict[str, Any]) -> None:
        """Write one record to the file or the collect buffer."""
        if self._handle is not None:
            self._handle.write(
                json.dumps(record, default=_json_default) + "\n"
            )
        else:
            self._records.append(record)

    # -- public API ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Return a new span; enter it with ``with`` to time a region."""
        return Span(self, name, attrs)

    def add(self, counter: str, value: float) -> None:
        """Add to the innermost open span's counter (tracer-level if none)."""
        stack = self._stack()
        if stack:
            stack[-1].add(counter, value)
        else:
            with self._lock:
                self._counters[counter] = (
                    self._counters.get(counter, 0) + value
                )

    def adopt(self, records: list[dict], **attrs: Any) -> int:
        """Graft foreign span records under the current span.

        ``records`` is a drained worker trace: ids are renumbered into
        this tracer's id space, parentless roots are re-parented under
        the innermost open span (and tagged with ``attrs``), and every
        record is emitted here.  Returns the number of adopted spans.
        """
        if not records:
            return 0
        stack = self._stack()
        anchor = stack[-1].record["id"] if stack else None
        with self._lock:
            offset = self._next_id
            self._next_id = offset + max(r["id"] for r in records) + 1
        for original in records:
            record = dict(original)
            record["id"] = record["id"] + offset
            if record.get("parent") is None:
                record["parent"] = anchor
                if attrs:
                    record["attrs"] = {**record.get("attrs", {}), **attrs}
            else:
                record["parent"] = record["parent"] + offset
            self._emit_span(record)
        return len(records)

    def drain(self) -> list[dict]:
        """Return and clear the collect-mode record buffer."""
        with self._lock:
            records, self._records = self._records, []
        return records

    @property
    def num_spans(self) -> int:
        """Number of span records emitted (including adopted ones)."""
        return self._num_spans

    def summary(self) -> dict[str, Any]:
        """Aggregated per-name counts/durations and total counters."""
        with self._lock:
            return {
                "type": "summary",
                "spans": self._num_spans,
                "names": {
                    name: {"count": entry[0], "total_s": entry[1]}
                    for name, entry in sorted(self._names.items())
                },
                "counters": dict(sorted(self._counters.items())),
            }

    def close(self) -> dict[str, Any]:
        """Write the trailing summary record and close the file."""
        summary = self.summary()
        if self._handle is not None:
            self._emit(summary)
            self._handle.close()
            self._handle = None
        return summary


_GLOBAL = threading.Lock()
_TRACER: NullTracer | Tracer = NULL_TRACER


def get_tracer() -> NullTracer | Tracer:
    """Return the process-global tracer (:data:`NULL_TRACER` by default)."""
    return _TRACER


def set_tracer(tracer: NullTracer | Tracer) -> NullTracer | Tracer:
    """Install ``tracer`` as the process-global tracer; returns the old one."""
    global _TRACER
    with _GLOBAL:
        previous = _TRACER
        _TRACER = tracer
    return previous


def install_collecting_tracer(enabled: bool) -> NullTracer | Tracer:
    """Install a worker-process tracer; returns the installed tracer.

    Worker entry points call this first thing: with ``enabled`` a fresh
    collect-mode :class:`Tracer` (records buffered for
    :meth:`Tracer.drain`), otherwise :data:`NULL_TRACER`.  Either way
    the install replaces any file-writing tracer a ``fork`` child
    inherited from the coordinator — a worker must never write the
    coordinator's trace file.
    """
    tracer: NullTracer | Tracer = Tracer(None) if enabled else NULL_TRACER
    set_tracer(tracer)
    return tracer


@contextmanager
def tracing(path: str | os.PathLike | None,
            memory: str | None = None) -> Iterator[Tracer]:
    """Install a :class:`Tracer` globally for the duration of a block.

    The previous global tracer is restored and the trace file closed
    (summary record appended) on exit, even on error.
    """
    tracer = Tracer(path, memory=memory)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
        tracer.close()
