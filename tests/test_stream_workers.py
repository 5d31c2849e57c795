"""Tests for repro.stream.workers: multi-process shard-parallel BSP.

The load-bearing property: a multi-process run is **bit-identical** to
the in-process ``bsp_hdrf_stream`` with the same workers/batch and the
same shard-derived streams — and at ``workers=1, batch=1`` both equal
sequential informed HDRF.  Everything else (planning, rebatching, wire
framing, reports, validation) is pinned by unit tests.
"""

import multiprocessing
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import references
from strategies import bsp_schedules, power_law_graphs

from repro.errors import (
    ConfigurationError,
    GraphFormatError,
    PartitioningError,
    WorkerFailureError,
)
from repro.graph.edgelist import write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.obs import NULL_TRACER, Tracer, set_tracer
from repro.parallel import SharedState, bsp_hdrf_stream
from repro.partition.base import capacity_bound
from repro.partition.state import StreamingState
from repro.runtime import make_job, run_job
from repro.stream import (
    EdgeSegment,
    MultiWorkerReport,
    plan_worker_segments,
    run_bsp_shared,
    write_sharded_edges,
)
from repro.stream.workers import (
    _MSG_BATCH,
    _MSG_COMMIT,
    _iter_batches,
    _pack_message,
    _stream_shared_job,
    _unpack_message,
    live_pool_health,
)
from shm_leaks import leaked_segments, psm_segments


@pytest.fixture(scope="module")
def graph():
    return chung_lu(400, mean_degree=8, exponent=2.1, seed=23, name="mw")


@pytest.fixture(scope="module")
def manifest(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("mw") / "mw.manifest.json"
    return write_sharded_edges(graph, out, num_shards=4)


def _oracle_parts(graph, workers, batch, streams, k=8):
    capacity = capacity_bound(graph.num_edges, k, 1.0)
    state = StreamingState(
        graph.num_vertices, k, capacity, exact_degrees=graph.degrees
    )
    parts = np.full(graph.num_edges, -1, dtype=np.int32)
    report = bsp_hdrf_stream(
        state, graph.edges, np.arange(graph.num_edges), parts,
        workers, batch=batch, streams=streams,
    )
    return parts, state, report


class TestPlanning:
    def test_manifest_round_robin(self, manifest):
        segments, streams, m, n = plan_worker_segments(manifest.path, 3)
        assert m == manifest.num_edges
        assert n == manifest.num_vertices
        # 4 shards over 3 workers: worker 0 owns shards 0 and 3.
        assert [len(s) for s in segments] == [2, 1, 1]
        covered = np.sort(np.concatenate(streams))
        assert np.array_equal(covered, np.arange(m))
        # Worker 0's stream is shard 0 then shard 3 (manifest order).
        shard0 = manifest.shard_edges[0]
        assert streams[0][0] == 0
        assert streams[0][shard0] == sum(manifest.shard_edges[:3])

    def test_flat_file_contiguous(self, graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        segments, streams, m, n = plan_worker_segments(path, 4)
        assert m == graph.num_edges
        assert n is None
        assert all(len(s) == 1 for s in segments)
        covered = np.concatenate(streams)
        assert np.array_equal(covered, np.arange(m))  # contiguous split
        assert segments[1][0].start_edge == streams[1][0]

    def test_more_workers_than_shards(self, manifest):
        segments, streams, _, _ = plan_worker_segments(manifest.path, 6)
        assert [len(s) for s in segments] == [1, 1, 1, 1, 0, 0]
        assert streams[5].size == 0

    def test_text_file_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        with pytest.raises(ConfigurationError, match="manifest"):
            plan_worker_segments(path, 2)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such"):
            plan_worker_segments(tmp_path / "nope.bin", 2)

    def test_workers_validated(self, manifest):
        with pytest.raises(ConfigurationError):
            plan_worker_segments(manifest.path, 0)


class TestRebatching:
    def test_batches_cross_segment_boundaries(self, manifest):
        segments, streams, _, _ = plan_worker_segments(manifest.path, 2)
        batches = list(_iter_batches(segments[0], batch=7, chunk_size=13))
        sizes = [us.shape[0] for us, vs, eids in batches]
        assert all(size == 7 for size in sizes[:-1])
        eids = np.concatenate([e for _, _, e in batches])
        assert np.array_equal(eids, streams[0])

    def test_stream_content_matches_shards(self, graph, manifest):
        segments, streams, _, _ = plan_worker_segments(manifest.path, 2)
        for segs, stream in zip(segments, streams):
            us = np.concatenate(
                [u for u, _, _ in _iter_batches(segs, 5, 16)]
            )
            vs = np.concatenate(
                [v for _, v, _ in _iter_batches(segs, 5, 16)]
            )
            assert np.array_equal(us, graph.edges[stream, 0])
            assert np.array_equal(vs, graph.edges[stream, 1])

    def test_unknown_segment_kind(self, tmp_path):
        seg = EdgeSegment(path=str(tmp_path / "x"), count=1, kind="nope")
        with pytest.raises(ConfigurationError):
            list(_iter_batches([seg], 4, 8))


class TestWireFormat:
    def test_message_roundtrip(self):
        body = np.arange(5, dtype=np.int64).tobytes()
        blob = _pack_message(b"B", 5, body[:16], body[16:])
        tag, count, payload = _unpack_message(blob)
        assert (tag, count) == (b"B", 5)
        assert bytes(payload) == body

    def test_corrupt_frame_rejected(self):
        blob = _pack_message(b"B", 3, b"\x00" * 72)
        with pytest.raises(WorkerFailureError, match="corrupt"):
            _unpack_message(blob[:-8])


class TestReport:
    def test_modeled_speedup(self):
        report = MultiWorkerReport(
            workers=4, batch=8, supersteps=10, edges_streamed=320,
            fast_supersteps=9, slow_supersteps=1,
        )
        assert report.modeled_speedup == pytest.approx(4.0)
        empty = MultiWorkerReport(2, 8, 0, 0, 0, 0)
        assert empty.modeled_speedup == 1.0


class TestValidation:
    def test_driver_rejects_bad_params(self, manifest):
        with pytest.raises(ConfigurationError):
            run_job(make_job("HDRF", manifest.path, 4, workers=2, batch=0))

    def test_driver_rejects_k_one(self, manifest):
        with pytest.raises(ConfigurationError):
            run_job(make_job("HDRF", manifest.path, 1, workers=2))

    def test_empty_stream_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(PartitioningError, match="empty"):
            run_job(make_job("HDRF", path, 4, workers=2))

    def test_pool_validates_shape(self):
        state = StreamingState(10, 4, 100, exact_degrees=np.zeros(10, np.int64))
        parts = np.zeros(4, np.int32)
        with pytest.raises(ConfigurationError):
            run_bsp_shared([], state, parts)
        with pytest.raises(ConfigurationError):
            run_bsp_shared([[]], state, parts, batch=0)


@pytest.mark.slow
class TestEquivalence:
    @pytest.mark.parametrize("workers,batch", [(1, 1), (1, 8), (2, 4), (4, 8)])
    def test_bit_identical_to_in_process_bsp(
        self, graph, manifest, workers, batch
    ):
        """The acceptance property, pinned on the fixture graph."""
        result = run_job(
            make_job("HDRF", manifest.path, 8, workers=workers, batch=batch)
        )
        _, streams, _, _ = plan_worker_segments(manifest.path, workers)
        oracle, state, report = _oracle_parts(graph, workers, batch, streams)
        assert np.array_equal(result.parts, oracle)
        assert np.array_equal(result.loads, state.loads)
        assert result.report.supersteps == report.supersteps
        assert result.report.edges_streamed == graph.num_edges
        assert result.num_unassigned == 0

    def test_fast_to_slow_handover_at_batch_16(self, graph, manifest):
        """The benchmark's batch crosses from fast supersteps, whose
        loads reach the live state only from the published snapshot,
        into slow ones, which place under those live loads; the
        assignment still equals the oracle's."""
        result = run_job(
            make_job("HDRF", manifest.path, 8, workers=2, batch=16)
        )
        _, streams, _, _ = plan_worker_segments(manifest.path, 2)
        oracle, state, report = _oracle_parts(graph, 2, 16, streams)
        assert result.report.fast_supersteps > 0
        assert result.report.slow_supersteps > 0
        assert result.report.supersteps == report.supersteps
        assert np.array_equal(result.parts, oracle)
        assert np.array_equal(result.loads, state.loads)

    def test_single_worker_batch_one_is_sequential_hdrf(self, manifest):
        """workers=1, batch=1 must equal sequential informed HDRF."""
        result = run_job(
            make_job("HDRF", manifest.path, 8, workers=1, batch=1)
        )
        sequential = run_job(
            make_job(
                "HDRF", manifest.path, 8,
                algo_params={"exact_degrees": True},
            )
        )
        assert np.array_equal(result.parts, sequential.parts)

    def test_deterministic_across_runs(self, manifest):
        a = run_job(make_job("HDRF", manifest.path, 8, workers=4, batch=8))
        b = run_job(make_job("HDRF", manifest.path, 8, workers=4, batch=8))
        assert np.array_equal(a.parts, b.parts)

    def test_flat_file_matches_contiguous_streams(self, graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        result = run_job(make_job("HDRF", path, 8, workers=3, batch=4))
        _, streams, _, _ = plan_worker_segments(path, 3)
        oracle, _, _ = _oracle_parts(graph, 3, 4, streams)
        assert np.array_equal(result.parts, oracle)

    def test_compressed_shards_identical(self, graph, tmp_path):
        plain = write_sharded_edges(
            graph, tmp_path / "p.manifest.json", num_shards=3
        )
        packed = write_sharded_edges(
            graph, tmp_path / "z.manifest.json", num_shards=3,
            compression="zlib",
        )
        a = run_job(make_job("HDRF", plain.path, 8, workers=2, batch=4))
        b = run_job(make_job("HDRF", packed.path, 8, workers=2, batch=4))
        assert np.array_equal(a.parts, b.parts)

    def test_no_orphan_processes_after_runs(self):
        assert multiprocessing.active_children() == []


class TestReadAhead:
    def test_read_ahead_error_waits_for_commit(self, graph, tmp_path):
        """The worker reads its next batch before it blocks for COMMIT;
        an error there is held until the COMMIT frame arrives, so the
        coordinator never finds a closed pipe where it owes a COMMIT."""
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        m, n = graph.num_edges, graph.num_vertices
        segments = [
            EdgeSegment(path=str(path), count=4, kind="pairs"),
            # Claims more edges than the file holds past edge 4.
            EdgeSegment(
                path=str(path), count=m, eid_start=4, kind="pairs",
                start_edge=4,
            ),
        ]
        state = StreamingState(
            n, 8, capacity_bound(m, 8, 1.0), exact_degrees=graph.degrees
        )
        shared = SharedState.create(
            n, 8, 1, 4, state.degrees, state.replicas, state.loads
        )
        coordinator, worker_end = multiprocessing.Pipe(duplex=True)
        raised = []

        def worker():
            try:
                _stream_shared_job(
                    0, worker_end, NULL_TRACER,
                    segments=segments, shm_name=shared.name,
                    num_vertices=n, k=8, capacity=state.capacity,
                    workers=1, batch=4, lam=1.1, eps=1.0, chunk_size=64,
                )
            except Exception as exc:  # noqa: BLE001 — asserted below
                raised.append(exc)

        thread = threading.Thread(target=worker, daemon=True)
        try:
            thread.start()
            tag, count, _ = _unpack_message(coordinator.recv_bytes())
            assert (tag, count) == (_MSG_BATCH, 4)
            thread.join(0.3)
            assert thread.is_alive() and raised == []
            coordinator.send_bytes(_pack_message(_MSG_COMMIT, 0))
            thread.join(10.0)
        finally:
            coordinator.close()
            worker_end.close()
            shared.close()
            shared.unlink()
        assert not thread.is_alive()
        assert len(raised) == 1
        assert isinstance(raised[0], GraphFormatError)
        assert "g.bin" in str(raised[0])


@pytest.mark.slow
class TestOneShotWorkers:
    @pytest.mark.parametrize("algo,params", [
        ("HDRF", {}),
        ("HEP", {"tau": 1.0}),
    ])
    def test_one_spawn_and_one_run_per_job(self, manifest, algo, params):
        """A traced 2-worker job forks its workers once, inside the
        stream stage that runs them: one ``pool_spawn`` beside one
        ``pool_run``, which holds both ``worker_stream`` spans."""
        tracer = Tracer(None)
        previous = set_tracer(tracer)
        try:
            run_job(make_job(algo, manifest.path, 8, workers=2, **params))
        finally:
            set_tracer(previous)
        spans = [r for r in tracer.drain() if r["type"] == "span"]
        by_id = {s["id"]: s for s in spans}
        [spawn] = [s for s in spans if s["name"] == "pool_spawn"]
        [pool_run] = [s for s in spans if s["name"] == "pool_run"]
        assert spawn["parent"] == pool_run["parent"]
        streams = [s for s in spans if s["name"] == "worker_stream"]
        assert len(streams) == 2
        assert {by_id[s["parent"]]["name"] for s in streams} == {"pool_run"}

    def test_workers_exit_when_the_run_returns(
        self, graph, manifest, monkeypatch
    ):
        """Health reports the run's live forked workers while it runs
        (worker 1: the coordinator streams worker 0's lane); once
        ``run_bsp_shared`` returns they are gone, with no shutdown call."""
        from repro.stream import workers as workers_mod

        during = []
        begin = workers_mod.StateService.begin_superstep

        def record(service):
            if not during:
                during.extend(live_pool_health())
            return begin(service)

        monkeypatch.setattr(
            workers_mod.StateService, "begin_superstep", record
        )
        segments, _, m, _ = plan_worker_segments(manifest.path, 2)
        state = StreamingState(
            graph.num_vertices, 8, capacity_bound(m, 8, 1.0),
            exact_degrees=graph.degrees,
        )
        run_bsp_shared(segments, state, np.full(m, -1, np.int32))
        [health] = during
        assert health["alive"] == [True]
        assert live_pool_health() == []
        assert [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-worker")
        ] == []
        for pid in health["pids"]:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def _repro_workers():
    return [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-worker")
    ]


@pytest.mark.slow
class TestCoordinatorLane:
    """The coordinator streams worker 0's lane itself: a run of ``N``
    lanes forks ``N - 1`` workers, and none at one lane."""

    def test_one_lane_run_forks_no_process(
        self, graph, manifest, monkeypatch
    ):
        """While a one-lane run runs, no ``repro-worker-*`` child exists
        and health reports no pool; its parts equal the one-stream
        in-process schedule's."""
        from repro.stream import workers as workers_mod

        during = []
        begin = workers_mod.StateService.begin_superstep

        def record(service):
            if not during:
                during.append((live_pool_health(), _repro_workers()))
            return begin(service)

        monkeypatch.setattr(
            workers_mod.StateService, "begin_superstep", record
        )
        segments, streams, m, _ = plan_worker_segments(manifest.path, 1)
        state = StreamingState(
            graph.num_vertices, 8, capacity_bound(m, 8, 1.0),
            exact_degrees=graph.degrees,
        )
        parts = np.full(m, -1, np.int32)
        report = run_bsp_shared(segments, state, parts, batch=16)
        assert during == [([], [])]
        oracle, oracle_state, oracle_report = _oracle_parts(
            graph, 1, 16, streams
        )
        assert np.array_equal(parts, oracle)
        assert np.array_equal(state.loads, oracle_state.loads)
        assert report.supersteps == oracle_report.supersteps
        assert len(report.timings.busy_s) == 1
        assert report.timings.busy_s[0] > 0.0

    def test_interrupt_in_the_coordinator_lane_leaks_nothing(
        self, graph, manifest, monkeypatch
    ):
        """A KeyboardInterrupt raised in the coordinator's own lane step
        mid-run propagates as itself; the forked worker is reaped and
        the segment unlinked."""
        from repro.stream import workers as workers_mod

        coordinator = os.getpid()
        step = workers_mod._Lane.step
        calls = []

        def interrupted(lane, replicas, loads, emit=None):
            # The forked worker inherits the patch; only the
            # coordinator's lane is interrupted.
            if os.getpid() == coordinator:
                calls.append(len(calls))
                if len(calls) == 3:
                    raise KeyboardInterrupt
            return step(lane, replicas, loads, emit)

        monkeypatch.setattr(workers_mod._Lane, "step", interrupted)
        segments, _, m, _ = plan_worker_segments(manifest.path, 2)
        state = StreamingState(
            graph.num_vertices, 8, capacity_bound(m, 8, 1.0),
            exact_degrees=graph.degrees,
        )
        before = psm_segments()
        with pytest.raises(KeyboardInterrupt):
            run_bsp_shared(
                segments, state, np.full(m, -1, np.int32), batch=4
            )
        assert len(calls) == 3
        assert _repro_workers() == []
        assert live_pool_health() == []
        assert leaked_segments(before) == []


@pytest.mark.slow
class TestLiveState:
    @pytest.mark.parametrize("alpha", [1.0, 100.0])
    def test_live_state_matches_oracle_after_run(
        self, graph, manifest, alpha
    ):
        """The coordinator's live replicas and loads end equal to the
        oracle's, whether the run ends slow (alpha 1) or never leaves
        the fast path (alpha 100), which never writes them itself."""
        segments, streams, m, _ = plan_worker_segments(manifest.path, 2)
        capacity = capacity_bound(m, 8, alpha)

        def fresh():
            return StreamingState(
                graph.num_vertices, 8, capacity, exact_degrees=graph.degrees
            )

        oracle = fresh()
        oracle_parts = np.full(m, -1, dtype=np.int32)
        bsp_hdrf_stream(
            oracle, graph.edges, np.arange(m), oracle_parts, 2,
            batch=16, streams=streams,
        )
        state = fresh()
        parts = np.full(m, -1, dtype=np.int32)
        report = run_bsp_shared(segments, state, parts, batch=16)
        assert (report.slow_supersteps > 0) == (alpha == 1.0)
        assert np.array_equal(parts, oracle_parts)
        assert np.array_equal(state.replicas, oracle.replicas)
        assert np.array_equal(state.loads, oracle.loads)


@pytest.mark.slow
class TestMultiWorkerHep:
    @pytest.mark.parametrize(
        "workers,batch,spill_compression",
        [
            pytest.param(1, 1, None, id="1-1"),
            pytest.param(2, 8, None, id="2-8"),
            # the workers decode framed spill segments
            pytest.param(2, 8, "zlib", id="2-8-zlib"),
        ],
    )
    def test_bit_identical_to_parallel_hep(
        self, graph, tmp_path, workers, batch, spill_compression
    ):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        result = run_job(
            make_job(
                "HEP", path, 8, workers=workers, batch=batch, tau=1.0,
                spill_compression=spill_compression,
            )
        )
        oracle, _ = references.parallel_hep(
            graph, 8, tau=1.0, workers=workers, batch=batch
        )
        assert np.array_equal(result.parts, oracle.parts)
        assert result.num_unassigned == 0
        assert result.report is not None
        assert result.report.workers == workers

    def test_temp_segments_cleaned_up(self, graph, tmp_path):
        spill_dir = tmp_path / "spill"
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        run_job(
            make_job(
                "HEP", path, 4, workers=2, tau=1.0, spill_dir=str(spill_dir)
            )
        )
        leftovers = list(spill_dir.glob("mw-h2h-*"))
        assert leftovers == []

    def test_no_h2h_edges_skips_pool(self, graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        result = run_job(make_job("HEP", path, 4, workers=2, tau=1e9))
        assert result.num_unassigned == 0
        assert result.report is None


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(graph=power_law_graphs(max_vertices=60), schedule=bsp_schedules())
def test_multi_worker_equivalence_property(graph, schedule):
    """Property: any sharded export, any 1/2/4-worker schedule — the
    multi-process run equals the in-process BSP schedule bit for bit,
    and the assignment is complete."""
    workers, batch, num_shards = schedule
    k = 4
    with tempfile.TemporaryDirectory(prefix="mw-prop-") as tmp:
        manifest = write_sharded_edges(
            graph, Path(tmp) / "g.manifest.json", num_shards=num_shards
        )
        result = run_job(
            make_job(
                "HDRF", manifest.path, k, workers=workers, batch=batch,
                chunk_size=32,
            )
        )
        _, streams, _, _ = plan_worker_segments(manifest.path, workers)
    oracle, state, _ = _oracle_parts(graph, workers, batch, streams, k=k)
    assert np.array_equal(result.parts, oracle)
    assert np.array_equal(result.loads, state.loads)
    assert result.num_unassigned == 0
    assert result.parts.min() >= 0
    assert result.parts.max() < k
