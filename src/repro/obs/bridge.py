"""Span → progress-event bridge: live trace records for subscribers.

The serve layer streams job progress to clients while a run executes.
Rather than inventing a second instrumentation surface, progress *is*
the trace: :class:`SpanEventBridge` is a collect-mode
:class:`~repro.obs.tracer.Tracer` that additionally hands every
finished span record to a caller-supplied callback the moment it is
emitted — including worker spans grafted in via
:meth:`~repro.obs.tracer.Tracer.adopt` as each worker's final frame
arrives.

The callback runs on whatever thread emitted the span (the job runner
thread, for the serve layer) and must be quick and exception-free;
anything it raises is swallowed so instrumentation can never fail a
run.  Subscribers that live on an event loop should hand off with
``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.tracer import Tracer

__all__ = ["SpanEventBridge", "progress_event"]


#: span names worth forwarding as coarse progress (pipeline stages and
#: pool lifecycle); everything else is detail a live client rarely wants
PROGRESS_SPANS = frozenset({
    "partition", "cache_hit", "count_pass", "select_tau", "split_pass",
    "phase_one", "stream_pass", "finalize", "metrics_pass", "pool_spawn",
    "pool_run", "shm_attach", "split_spill",
})


def progress_event(record: dict[str, Any]) -> dict[str, Any] | None:
    """Distill one trace record into a progress event, or ``None``.

    Keeps the span name, duration, and counters; drops ids/parents
    (meaningless outside the trace tree) and any span not in
    :data:`PROGRESS_SPANS`.
    """
    if record.get("type") != "span":
        return None
    name = record.get("name")
    if name not in PROGRESS_SPANS:
        return None
    event: dict[str, Any] = {"event": "span", "span": name}
    if record.get("dur_s") is not None:
        event["dur_s"] = record["dur_s"]
    attrs = record.get("attrs")
    if attrs:
        event["attrs"] = dict(attrs)
    counters = record.get("counters")
    if counters:
        event["counters"] = dict(counters)
    return event


class SpanEventBridge(Tracer):
    """A collecting tracer that forwards finished spans to a callback.

    Behaves exactly like ``Tracer(path=None)`` — spans buffer in memory,
    workers' records are adopted, ``drain()`` empties the buffer — with
    one addition: every emitted record is also passed (as a copy) to
    ``callback``.  Install it with
    :func:`~repro.obs.tracer.set_tracer` around a job to watch the run
    live.
    """

    def __init__(
        self,
        callback: Callable[[dict[str, Any]], None],
        memory: str | None = None,
    ) -> None:
        """Wrap a collect-mode tracer around ``callback``."""
        super().__init__(None, memory=memory)
        self._callback = callback

    def _emit(self, record: dict[str, Any]) -> None:
        """Buffer the record, then forward a copy to the callback."""
        super()._emit(record)
        try:
            self._callback(dict(record))
        except Exception:  # noqa: BLE001 — observers must never fail a run
            pass
