"""Integration tests for repro.obs across the streaming/worker stack.

The load-bearing properties:

* worker-side spans ship over the BSP pipes and land re-parented under
  the coordinator's ``pool_run`` span — one coherent tree per run,
* enabling tracing never changes partition assignments (bit-identity,
  pinned as a Hypothesis property over graphs and BSP schedules),
* per-worker busy/wait timings are reported even *without* tracing.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from strategies import bsp_schedules, power_law_graphs

from repro.core.ne_plus_plus import run_ne_plus_plus
from repro.graph.generators import chung_lu
from repro.obs import Tracer, phase_breakdown, read_trace, set_tracer, tracing
from repro.runtime import make_job, run_job
from repro.stream import write_sharded_edges
from repro.stream.workers import WorkerTimings


@pytest.fixture(scope="module")
def graph():
    return chung_lu(400, mean_degree=8, exponent=2.1, seed=23, name="obs")


@pytest.fixture(scope="module")
def manifest(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("obs") / "obs.manifest.json"
    return write_sharded_edges(graph, out, num_shards=4)


def _collected_run(spec):
    """Run ``spec`` under a collect-mode tracer; return (result, spans)."""
    tracer = Tracer(None)
    previous = set_tracer(tracer)
    try:
        result = run_job(spec)
    finally:
        set_tracer(previous)
    return result, tracer.drain()


def _mw2(manifest):
    """The 2-worker, batch-8 HDRF job most tests here trace."""
    return make_job("HDRF", manifest.path, 8, workers=2, batch=8)


class TestWorkerSpanForwarding:
    def test_two_worker_run_builds_one_tree(self, graph, manifest):
        _, spans = _collected_run(_mw2(manifest))
        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert [r["name"] for r in roots] == ["partition"]
        root_id = roots[0]["id"]

        def root_of(span):
            while span["parent"] is not None:
                span = by_id[span["parent"]]
            return span["id"]

        # Every span — including the adopted worker spans — reaches the
        # single partition root, so the run is one coherent tree.
        assert all(root_of(s) == root_id for s in spans)

        streams = [s for s in spans if s["name"] == "worker_stream"]
        assert len(streams) == 2
        assert sorted(s["attrs"]["worker"] for s in streams) == [0, 1]
        for stream in streams:
            parent = by_id[stream["parent"]]
            assert parent["name"] == "pool_run"
            assert parent["attrs"]["pool"] == "bsp-shm"
            assert stream["counters"]["edges_scanned"] > 0
            assert stream["counters"]["busy_s"] >= 0.0

        # The counting and metrics passes sweep once each in the
        # coordinator; the BSP run is the only pool round.
        for name in ("count_pass", "metrics_pass"):
            passes = [s for s in spans if s["name"] == name]
            assert len(passes) == 1
            assert passes[0]["parent"] == root_id
            assert passes[0]["counters"]["edges_scanned"] == graph.num_edges
        pool_runs = [s for s in spans if s["name"] == "pool_run"]
        assert [s["attrs"]["pool"] for s in pool_runs] == ["bsp-shm"]

    def test_shared_memory_run_records_shm_spans(self, manifest):
        _, spans = _collected_run(_mw2(manifest))
        attaches = [s for s in spans if s["name"] == "shm_attach"]
        # One coordinator-side create plus one attach per worker.
        assert sum("worker" not in s["attrs"] for s in attaches) == 1
        assert sorted(
            s["attrs"]["worker"] for s in attaches if "worker" in s["attrs"]
        ) == [0, 1]
        assert all(s["counters"]["shm_bytes"] > 0 for s in attaches)
        commits = [s for s in spans if s["name"] == "superstep_commit"]
        assert len(commits) == 1
        assert commits[0]["counters"]["supersteps"] > 0

    def test_pool_run_carries_coordinator_counters(self, manifest):
        _, spans = _collected_run(_mw2(manifest))
        bsp = next(
            s for s in spans
            if s["name"] == "pool_run" and s["attrs"]["pool"] == "bsp-shm"
        )
        counters = bsp["counters"]
        assert counters["supersteps"] > 0
        assert counters["frames_sent"] > 0
        assert counters["bytes_piped"] > 0
        assert counters["recv_wait_s"] >= 0.0

    def test_worker_edges_sum_to_stream_total(self, graph, manifest):
        _, spans = _collected_run(_mw2(manifest))
        streamed = sum(
            s["counters"]["edges_scanned"]
            for s in spans if s["name"] == "worker_stream"
        )
        assert streamed == graph.num_edges

    def test_phase_breakdown_attributes_most_of_the_run(self, manifest):
        _, spans = _collected_run(_mw2(manifest))
        out = phase_breakdown(spans)
        assert out["wall_s"] > 0
        # The acceptance bar bench_profile enforces at >= 0.9 on the
        # bench host; keep a looser floor here so a loaded CI runner
        # cannot flake the tier-1 suite.
        assert out["attributed"] >= 0.6
        assert out["seconds"]["spawn"] > 0.0

    def test_untraced_run_stays_on_the_null_tracer(self, manifest):
        from repro.obs import NULL_TRACER, get_tracer

        assert get_tracer() is NULL_TRACER
        result = run_job(_mw2(manifest))
        assert get_tracer() is NULL_TRACER
        assert get_tracer().num_spans == 0
        assert result.report.supersteps > 0


class TestTracingNeverChangesResults:
    @settings(max_examples=4, deadline=None)
    @given(graph=power_law_graphs(max_vertices=60), schedule=bsp_schedules())
    def test_multi_worker_assignments_bit_identical(
        self, tmp_path_factory, graph, schedule
    ):
        workers, batch, num_shards = schedule
        out = tmp_path_factory.mktemp("obs-prop") / "g.manifest.json"
        manifest = write_sharded_edges(graph, out, num_shards=num_shards)

        spec = make_job(
            "HDRF", manifest.path, 4, workers=workers, batch=batch
        )
        plain = run_job(spec)

        trace_path = out.parent / "run.trace.jsonl"
        with tracing(trace_path):
            traced = run_job(spec)

        np.testing.assert_array_equal(plain.parts, traced.parts)
        assert plain.replication_factor == traced.replication_factor
        assert plain.edge_balance == traced.edge_balance
        # And the trace actually recorded the run.
        spans = [
            r for r in read_trace(trace_path) if r.get("type") == "span"
        ]
        assert sum(s["name"] == "worker_stream" for s in spans) == workers

    def test_hep_pipeline_bit_identical_under_tracing(
        self, manifest, tmp_path
    ):
        spec = make_job("HEP", manifest.path, 8, tau=2.0)
        plain = run_job(spec)
        with tracing(tmp_path / "hep.trace.jsonl"):
            traced = run_job(spec)
        np.testing.assert_array_equal(plain.parts, traced.parts)

    def test_multi_worker_hep_bit_identical_under_tracing(
        self, manifest, tmp_path
    ):
        spec = make_job("HEP", manifest.path, 8, workers=2, batch=8, tau=2.0)
        plain = run_job(spec)
        with tracing(tmp_path / "mwhep.trace.jsonl"):
            traced = run_job(spec)
        np.testing.assert_array_equal(plain.parts, traced.parts)

    def test_sequential_driver_bit_identical_under_tracing(
        self, manifest, tmp_path
    ):
        spec = make_job("HDRF", manifest.path, 8)
        plain = run_job(spec)
        with tracing(tmp_path / "seq.trace.jsonl"):
            traced = run_job(spec)
        np.testing.assert_array_equal(plain.parts, traced.parts)


class TestPhaseOneCounters:
    def test_phase_one_span_carries_the_ne_plus_plus_stats(self, graph, manifest):
        """The ``phase_one`` span counts seeds, cored vertices, spilled
        edges and clean-up removals; they equal the stats of the
        in-memory NE++ run at the same tau, and tracing leaves the parts
        alone."""
        spec = make_job("HEP", manifest.path, 8, tau=2.0)
        plain = run_job(spec)
        traced, spans = _collected_run(spec)
        np.testing.assert_array_equal(plain.parts, traced.parts)
        (phase_one,) = [s for s in spans if s["name"] == "phase_one"]
        stats = run_ne_plus_plus(graph, 8, tau=2.0).stats
        assert phase_one["counters"] == {
            "seeds": stats.num_seeds,
            "cored": stats.num_cored,
            "spilled_edges": stats.spilled_edges,
            "cleanup_removed": stats.cleanup_removed_entries,
        }
        assert traced.breakdown.spilled_edges == stats.spilled_edges
        assert (
            traced.breakdown.cleanup_removed_fraction
            == stats.cleanup_removed_fraction
        )


class TestWorkerTimingsWithoutTrace:
    def test_report_carries_per_worker_timings(self, manifest):
        result = run_job(_mw2(manifest))
        timings = result.report.timings
        assert isinstance(timings, WorkerTimings)
        assert len(timings.busy_s) == 2
        assert all(b > 0.0 for b in timings.busy_s)
        assert all(w >= 0.0 for w in timings.wait_s)
        assert timings.max_busy_s == max(timings.busy_s)
        assert timings.mean_busy_s == pytest.approx(
            sum(timings.busy_s) / 2
        )
        assert timings.skew >= 1.0
        assert timings.coordinator_recv_s >= 0.0
        assert timings.coordinator_merge_s >= 0.0

    def test_skew_degenerate_cases(self):
        zero = WorkerTimings(
            busy_s=(0.0,), wait_s=(0.0,), send_s=(0.0,),
            coordinator_recv_s=0.0, coordinator_merge_s=0.0,
            coordinator_send_s=0.0,
        )
        assert zero.skew == 1.0
        skewed = WorkerTimings(
            busy_s=(3.0, 1.0), wait_s=(0.0, 0.0), send_s=(0.0, 0.0),
            coordinator_recv_s=0.0, coordinator_merge_s=0.0,
            coordinator_send_s=0.0,
        )
        assert skewed.skew == pytest.approx(1.5)
