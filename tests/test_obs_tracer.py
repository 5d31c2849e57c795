"""Tests for repro.obs: tracer core, summaries, and schema validation.

Covers the span mechanics (nesting, ids, adoption/re-parenting), the
JSONL round trip, the no-op default path instrumented code relies on,
and the profile-record schema the bench/CI pipeline shares.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TraceFormatError
from repro.obs import (
    NULL_TRACER,
    PROFILE_PHASES,
    TRACE_VERSION,
    NullTracer,
    Tracer,
    aggregate_spans,
    format_summary,
    get_tracer,
    phase_breakdown,
    read_trace,
    set_tracer,
    total_counters,
    tracing,
    validate_profile_record,
)
from repro.obs.tracer import _NULL_SPAN, install_collecting_tracer


def _spans(records):
    return [r for r in records if r.get("type") == "span"]


class TestSpanMechanics:
    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer(None)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        by_name = {r["name"]: r for r in tracer.drain()}
        outer = by_name["outer"]
        assert outer["parent"] is None
        assert by_name["inner"]["parent"] == outer["id"]
        assert by_name["sibling"]["parent"] == outer["id"]
        # Children close before the parent, so they are emitted first.
        assert outer["id"] < by_name["inner"]["id"]

    def test_ids_are_unique(self):
        tracer = Tracer(None)
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [r["id"] for r in tracer.drain()]
        assert len(ids) == len(set(ids))

    def test_counters_accumulate_and_coerce_numpy(self):
        tracer = Tracer(None)
        with tracer.span("s") as span:
            span.add("edges_scanned", 3)
            span.add("edges_scanned", np.int64(4))
            span.add("bytes_piped", np.float32(1.5))
        (record,) = tracer.drain()
        assert record["counters"]["edges_scanned"] == 7
        assert isinstance(record["counters"]["edges_scanned"], int)
        assert record["counters"]["bytes_piped"] == pytest.approx(1.5)

    def test_set_merges_attrs(self):
        tracer = Tracer(None)
        with tracer.span("s", k=8) as span:
            span.set(tau=2.5)
        (record,) = tracer.drain()
        assert record["attrs"] == {"k": 8, "tau": 2.5}

    def test_tracer_add_targets_innermost_span(self):
        tracer = Tracer(None)
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.add("edges_scanned", 2)
        by_name = {r["name"]: r for r in tracer.drain()}
        assert by_name["inner"]["counters"] == {"edges_scanned": 2}
        assert by_name["outer"]["counters"] == {}

    def test_tracer_add_outside_spans_lands_in_summary(self):
        tracer = Tracer(None)
        tracer.add("stray", 5)
        assert tracer.summary()["counters"] == {"stray": 5}

    def test_error_inside_span_is_recorded_and_propagates(self):
        tracer = Tracer(None)
        with pytest.raises(ValueError):
            with tracer.span("s"):
                raise ValueError("boom")
        (record,) = tracer.drain()
        assert record["attrs"]["error"] == "ValueError"

    def test_duration_is_positive(self):
        tracer = Tracer(None)
        with tracer.span("s"):
            sum(range(1000))
        (record,) = tracer.drain()
        assert record["dur_s"] >= 0.0
        assert record["start"] > 0.0


class TestAdoption:
    def test_adopt_renumbers_and_reparents(self):
        worker = Tracer(None)
        with worker.span("worker_stream") as span:
            span.add("busy_s", 0.5)
            with worker.span("child"):
                pass
        shipped = worker.drain()

        coord = Tracer(None)
        with coord.span("pool_run"):
            adopted = coord.adopt(shipped, worker=1)
        assert adopted == 2
        by_name = {r["name"]: r for r in coord.drain()}
        pool = by_name["pool_run"]
        root = by_name["worker_stream"]
        assert root["parent"] == pool["id"]
        assert root["attrs"]["worker"] == 1
        assert by_name["child"]["parent"] == root["id"]
        ids = {r["id"] for r in by_name.values()}
        assert len(ids) == 3

    def test_adopt_without_open_span_keeps_roots_parentless(self):
        worker = Tracer(None)
        with worker.span("worker_count"):
            pass
        coord = Tracer(None)
        coord.adopt(worker.drain())
        (record,) = coord.drain()
        assert record["parent"] is None

    def test_adopt_empty_is_noop(self):
        tracer = Tracer(None)
        assert tracer.adopt([]) == 0
        assert tracer.num_spans == 0

    def test_adopted_spans_count_in_summary(self):
        worker = Tracer(None)
        with worker.span("worker_stream") as span:
            span.add("edges_scanned", 9)
        coord = Tracer(None)
        coord.adopt(worker.drain())
        summary = coord.summary()
        assert summary["spans"] == 1
        assert summary["counters"]["edges_scanned"] == 9


class TestNoOpPath:
    def test_default_global_tracer_is_null(self):
        assert isinstance(get_tracer(), NullTracer)
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_null_span_is_one_shared_object(self):
        a = NULL_TRACER.span("x", k=1)
        b = NULL_TRACER.span("y")
        assert a is b is _NULL_SPAN
        with a as span:
            span.add("c", 1)
            span.set(z=2)

    def test_null_tracer_records_nothing(self):
        NULL_TRACER.adopt([{"id": 1, "parent": None}])
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.num_spans == 0
        assert NULL_TRACER.close() == {}

    def test_install_collecting_tracer_modes(self):
        previous = get_tracer()
        try:
            tracer = install_collecting_tracer(True)
            assert isinstance(tracer, Tracer)
            assert tracer.path is None
            assert get_tracer() is tracer
            assert install_collecting_tracer(False) is NULL_TRACER
            assert get_tracer() is NULL_TRACER
        finally:
            set_tracer(previous)


class TestJsonlRoundTrip:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        with tracing(path) as tracer:
            with tracer.span("partition", k=8):
                with tracer.span("count_pass") as span:
                    span.add("edges_scanned", 100)
        records = read_trace(path)
        header = records[0]
        assert header["type"] == "trace"
        assert header["version"] == TRACE_VERSION
        assert header["memory"] is None
        assert [r["name"] for r in _spans(records)] == [
            "count_pass", "partition",
        ]
        assert records[-1]["type"] == "summary"
        assert records[-1]["spans"] == 2
        assert records[-1]["counters"] == {"edges_scanned": 100}

    def test_numpy_attrs_serialize(self, tmp_path):
        path = tmp_path / "np.trace.jsonl"
        with tracing(path) as tracer:
            with tracer.span("s", n=np.int64(5), p=tmp_path) as span:
                span.add("c", np.uint32(2))
        (span_record,) = _spans(read_trace(path))
        assert span_record["attrs"]["n"] == 5
        assert span_record["attrs"]["p"] == str(tmp_path)
        assert span_record["counters"]["c"] == 2

    @settings(max_examples=20)
    @given(
        names=st.lists(
            st.text(min_size=1, max_size=12), min_size=1, max_size=6
        ),
        counters=st.dictionaries(
            st.sampled_from(["edges", "bytes", "frames"]),
            st.integers(min_value=0, max_value=2**40),
            max_size=3,
        ),
    )
    def test_round_trip_property(self, tmp_path_factory, names, counters):
        """Arbitrary span names/counters survive the JSONL round trip."""
        path = tmp_path_factory.mktemp("rt") / "t.jsonl"
        with tracing(path) as tracer:
            for name in names:
                with tracer.span(name) as span:
                    for key, value in counters.items():
                        span.add(key, value)
        spans = _spans(read_trace(path))
        assert [s["name"] for s in spans] == names
        for span in spans:
            assert span["counters"] == counters

    def test_tracing_restores_previous_tracer_on_error(self, tmp_path):
        before = get_tracer()
        with pytest.raises(RuntimeError):
            with tracing(tmp_path / "err.jsonl"):
                raise RuntimeError("boom")
        assert get_tracer() is before
        # The file is still closed and well formed.
        records = read_trace(tmp_path / "err.jsonl")
        assert records[-1]["type"] == "summary"

    def test_read_trace_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        with pytest.raises(TraceFormatError):
            read_trace(bad)

    def test_read_trace_rejects_missing_header(self, tmp_path):
        bad = tmp_path / "headless.jsonl"
        bad.write_text('{"type": "span", "name": "x"}\n', encoding="utf-8")
        with pytest.raises(TraceFormatError):
            read_trace(bad)

    def test_read_trace_rejects_non_object_records(self, tmp_path):
        bad = tmp_path / "list.jsonl"
        bad.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(TraceFormatError):
            read_trace(bad)

    def test_read_trace_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError):
            read_trace(tmp_path / "absent.jsonl")


class TestMemoryProbes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            Tracer(None, memory="vibes")

    @pytest.mark.parametrize("mode", ["tracemalloc", "rss"])
    def test_mode_records_delta(self, tmp_path, mode):
        path = tmp_path / f"{mode}.jsonl"
        with tracing(path, memory=mode) as tracer:
            with tracer.span("alloc"):
                blob = np.zeros(1 << 16, dtype=np.uint8)
                del blob
        records = read_trace(path)
        assert records[0]["memory"] == mode
        (span,) = _spans(records)
        assert "mem_delta_bytes" in span
        assert isinstance(span["mem_delta_bytes"], int)

    def test_no_probe_omits_field(self):
        tracer = Tracer(None)
        with tracer.span("s"):
            pass
        (record,) = tracer.drain()
        assert "mem_delta_bytes" not in record


class TestSummaries:
    def _toy_trace(self):
        tracer = Tracer(None)
        with tracer.span("partition"):
            with tracer.span("count_pass") as span:
                span.add("edges_scanned", 10)
            with tracer.span("count_pass") as span:
                span.add("edges_scanned", 5)
        header = {"type": "trace", "version": TRACE_VERSION, "memory": None}
        return [header, *tracer.drain()]

    def test_aggregate_spans(self):
        rollup = aggregate_spans(self._toy_trace())
        assert rollup["count_pass"]["count"] == 2
        assert rollup["partition"]["count"] == 1
        assert rollup["count_pass"]["mean_s"] == pytest.approx(
            rollup["count_pass"]["total_s"] / 2
        )

    def test_total_counters(self):
        assert total_counters(self._toy_trace()) == {"edges_scanned": 15}

    def test_format_summary_mentions_key_content(self):
        text = format_summary(self._toy_trace())
        assert "count_pass" in text
        assert "edges_scanned" in text
        assert "attributed" in text
        for phase in PROFILE_PHASES:
            assert phase in text

    def test_phase_breakdown_attributes_pool_counters(self):
        spans = [
            {"type": "span", "id": 1, "parent": None, "name": "partition",
             "dur_s": 10.0, "counters": {}},
            {"type": "span", "id": 2, "parent": 1, "name": "pool_spawn",
             "dur_s": 1.0, "counters": {}},
            {"type": "span", "id": 3, "parent": 1, "name": "pool_run",
             "dur_s": 6.0,
             "counters": {"send_s": 1.0, "merge_s": 0.5, "encode_s": 0.5,
                          "recv_wait_s": 4.0}},
            {"type": "span", "id": 4, "parent": 3, "name": "worker_stream",
             "dur_s": 4.0,
             "counters": {"busy_s": 2.0, "encode_s": 1.0, "send_s": 1.0}},
            {"type": "span", "id": 5, "parent": 1, "name": "phase_one",
             "dur_s": 2.0, "counters": {}},
        ]
        out = phase_breakdown(spans)
        assert out["wall_s"] == pytest.approx(10.0)
        seconds = out["seconds"]
        assert seconds["spawn"] == pytest.approx(1.0)
        assert seconds["merge"] == pytest.approx(0.5)
        # recv_wait 4.0 apportioned 2:1:1 over busy/encode/send.
        assert seconds["compute"] == pytest.approx(2.0 + 2.0)
        assert seconds["pickle"] == pytest.approx(0.5 + 1.0)
        assert seconds["pipe"] == pytest.approx(1.0 + 1.0)
        assert out["attributed"] == pytest.approx(0.9)
        assert out["fractions"]["other"] == pytest.approx(0.1)

    def test_phase_breakdown_recv_wait_defaults_to_pipe(self):
        spans = [
            {"type": "span", "id": 1, "parent": None, "name": "pool_run",
             "dur_s": 2.0, "counters": {"recv_wait_s": 2.0}},
        ]
        out = phase_breakdown(spans)
        assert out["seconds"]["pipe"] == pytest.approx(2.0)

    def test_phase_breakdown_subtracts_nested_stages(self):
        spans = [
            {"type": "span", "id": 1, "parent": None, "name": "stream_pass",
             "dur_s": 5.0, "counters": {}},
            {"type": "span", "id": 2, "parent": 1, "name": "split_spill",
             "dur_s": 2.0, "counters": {}},
            {"type": "span", "id": 3, "parent": 1, "name": "pool_run",
             "dur_s": 1.0, "counters": {}},
        ]
        out = phase_breakdown(spans, wall_s=5.0)
        # stream_pass contributes 5 - 2 - 1; split_spill contributes 2.
        assert out["seconds"]["compute"] == pytest.approx(4.0)

    def test_phase_breakdown_empty_trace(self):
        out = phase_breakdown([])
        assert out["wall_s"] == 0.0
        assert out["attributed"] == 0.0


class TestProfileSchema:
    def _record(self):
        return {
            "bench": "profile",
            "graph": "WI",
            "edges": 1000,
            "k": 8,
            "cpu_count": 2,
            "rows": [
                {
                    "workers": 2,
                    "wall_s": 1.5,
                    "phases": {
                        "spawn": 0.1, "pickle": 0.1, "pipe": 0.2,
                        "compute": 0.5, "merge": 0.05, "other": 0.05,
                    },
                    "attributed": 0.95,
                },
            ],
        }

    def test_valid_record_passes(self):
        validate_profile_record(self._record())

    @pytest.mark.parametrize("mutate", [
        lambda r: r.update(bench="speed"),
        lambda r: r.pop("cpu_count"),
        lambda r: r.update(cpu_count=0),
        lambda r: r.update(edges=-1),
        lambda r: r.update(rows=[]),
        lambda r: r["rows"][0].pop("phases"),
        lambda r: r["rows"][0].update(workers=0),
        lambda r: r["rows"][0].update(wall_s=0),
        lambda r: r["rows"][0]["phases"].pop("compute"),
        lambda r: r["rows"][0]["phases"].update(pipe=-0.1),
        lambda r: r["rows"][0].update(attributed=2.0),
    ])
    def test_invalid_records_rejected(self, mutate):
        record = self._record()
        mutate(record)
        with pytest.raises(TraceFormatError):
            validate_profile_record(record)

    def test_non_dict_rejected(self):
        with pytest.raises(TraceFormatError):
            validate_profile_record([])


def test_read_trace_rejects_binary_file(tmp_path):
    """A non-UTF-8 file is a format error, not an unhandled traceback."""
    bad = tmp_path / "binary.bin"
    bad.write_bytes(bytes(range(256)))
    with pytest.raises(TraceFormatError):
        read_trace(bad)
