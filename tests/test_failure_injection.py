"""Failure-injection tests: corrupted inputs, hostile parameters, and
boundary conditions must fail loudly with library exceptions, never
silently corrupt results — including worker processes dying
mid-superstep."""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    GraphFormatError,
    PartitioningError,
    ReproError,
    WorkerFailureError,
)
from repro.graph import (
    Graph,
    read_binary_edgelist,
    read_text_edgelist,
)
from repro.graph.generators import chung_lu
from references import job
from shm_leaks import leaked_segments, psm_segments
from repro.core import select_tau
from repro.partition import PartitionAssignment


class TestCorruptFiles:
    def test_binary_odd_length(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(GraphFormatError):
            read_binary_edgelist(path)

    def test_binary_garbage_is_still_parsed_as_ids(self, tmp_path):
        # 8 random bytes are a syntactically valid edge; semantic bounds
        # are enforced by num_vertices.
        path = tmp_path / "g.bin"
        path.write_bytes(bytes(range(8)))
        with pytest.raises(GraphFormatError):
            read_binary_edgelist(path, num_vertices=2)

    def test_text_with_binary_noise(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n\xff\xfe garbage\n")
        with pytest.raises((GraphFormatError, UnicodeDecodeError)):
            read_text_edgelist(path)

    def test_text_negative_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 -3\n")
        with pytest.raises(GraphFormatError):
            read_text_edgelist(path)


class TestHostileParameters:
    @pytest.fixture(scope="class")
    def graph(self):
        return chung_lu(100, mean_degree=6, exponent=2.3, seed=17)

    def test_k_larger_than_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        # More partitions than edges: valid, some partitions stay empty.
        a = job("HEP", g, 16, tau=10.0)
        assert a.num_unassigned == 0
        assert a.partition_sizes().sum() == 2

    def test_k_one_rejected_everywhere(self, graph):
        for algo in ("HEP", "HDRF"):
            with pytest.raises(ConfigurationError):
                job(algo, graph, 1)

    def test_empty_graph_rejected(self):
        g = Graph.from_edges(np.empty((0, 2)), num_vertices=5)
        with pytest.raises(PartitioningError):
            job("HDRF", g, 2)

    def test_negative_tau(self, graph):
        with pytest.raises(ConfigurationError):
            job("HEP", graph, 4, tau=-1.0)

    def test_impossible_budget(self, graph):
        with pytest.raises(ConfigurationError):
            select_tau(graph, memory_budget_bytes=1, k=4)

    def test_all_errors_are_repro_errors(self):
        for exc in (ConfigurationError, GraphFormatError, PartitioningError):
            assert issubclass(exc, ReproError)


class TestBoundaryGraphs:
    def test_single_edge(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        a = job("HEP", g, 2, tau=1.0)
        assert a.num_unassigned == 0

    def test_two_vertices_many_partitions(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        a = job("HDRF", g, 8)
        assert int((a.partition_sizes() > 0).sum()) == 1

    def test_complete_graph(self):
        n = 12
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(edges, num_vertices=n)
        for tau in (0.5, 2.0):
            a = job("HEP", g, 4, tau=tau)
            assert a.num_unassigned == 0
            assert a.partition_sizes().sum() == g.num_edges

    def test_disconnected_isolated_heavy(self):
        # A clique plus many isolated vertices: isolated ids must not
        # perturb metrics or partitioning.
        clique = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = Graph.from_edges(clique, num_vertices=1000)
        a = job("HEP", g, 3, tau=2.0)
        assert a.num_unassigned == 0
        from repro.metrics import replication_factor

        assert 1.0 <= replication_factor(a) <= 3.0

    def test_path_graph_chain(self):
        edges = [(i, i + 1) for i in range(99)]
        g = Graph.from_edges(edges, num_vertices=100)
        a = job("HEP", g, 4, tau=100.0)
        assert a.num_unassigned == 0
        # A path partitions into near-contiguous runs: RF close to 1.
        assert a.replication_factor() < 1.2

    def test_assignment_rejects_k_zero(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        with pytest.raises(ConfigurationError):
            PartitionAssignment(g, 0, np.array([0], dtype=np.int32))


@pytest.mark.slow
class TestMultiWorkerFailures:
    """Failures a multi-worker driver run meets before its streaming
    phase: a corrupt shard fails the counting pass with the sequential
    pass's error type, and worker errors are library errors."""

    @pytest.fixture()
    def sharded(self, tmp_path):
        from repro.stream import write_sharded_edges

        graph = chung_lu(300, mean_degree=8, exponent=2.2, seed=5, name="fi")
        manifest = write_sharded_edges(
            graph, tmp_path / "fi.manifest.json", num_shards=4
        )
        return graph, manifest

    def test_pre_poisoned_manifest_fails_in_counting_pass(self, sharded):
        from repro.runtime import make_job, run_job

        graph, manifest = sharded
        shard = manifest.shard_paths[1]
        shard.write_bytes(shard.read_bytes()[:-8])
        with pytest.raises(GraphFormatError, match="shard"):
            run_job(make_job("HDRF", manifest.path, 4, workers=2))
        assert multiprocessing.active_children() == []

    def test_failure_is_worker_failure_error_subclass(self):
        assert issubclass(WorkerFailureError, PartitioningError)
        assert issubclass(WorkerFailureError, ReproError)


def _repro_workers():
    return [
        p for p in multiprocessing.active_children()
        if p.name.startswith("repro-worker")
    ]


@pytest.mark.slow
class TestWarmPoolFailures:
    """A worker killed mid-superstep or a shard truncated mid-pass must
    surface as *one* clean :class:`WorkerFailureError` naming the
    worker and its shard, leave no ``repro-worker-*`` child, and leak
    no ``/dev/shm`` segment: ``run_bsp_shared`` reaps its workers and
    unlinks its segment in one ``finally``, on the failure path too.
    The run's pids come from ``live_pool_health()``, its frame count
    from the live worker group."""

    @pytest.fixture()
    def sharded(self, tmp_path):
        from repro.stream import write_sharded_edges

        graph = chung_lu(300, mean_degree=8, exponent=2.2, seed=5, name="wf")
        manifest = write_sharded_edges(
            graph, tmp_path / "wf.manifest.json", num_shards=4
        )
        return graph, manifest

    def _shared_run(self, graph, manifest, workers=2, batch=2, segments=None):
        from repro.partition.base import capacity_bound
        from repro.partition.state import StreamingState
        from repro.stream import plan_worker_segments, run_bsp_shared

        if segments is None:
            segments, _, _, _ = plan_worker_segments(manifest.path, workers)
        capacity = capacity_bound(graph.num_edges, 4, 1.0)
        state = StreamingState(
            graph.num_vertices, 4, capacity, exact_degrees=graph.degrees
        )
        parts = np.full(graph.num_edges, -1, dtype=np.int32)
        return run_bsp_shared(
            segments, state, parts, batch=batch, chunk_size=64
        )

    @staticmethod
    def _kill_after_spawn(monkeypatch, worker):
        """SIGKILL forked ``worker`` of the next run as soon as it is forked.

        The coordinator streams worker 0's lane itself, so ``pids``
        lists the forked workers 1, 2, ... from index 0.
        """
        from repro.stream import workers as workers_mod

        fork = workers_mod._WorkerGroup.fork

        def fork_then_kill(group, job, trace):
            fork(group, job, trace)
            [health] = workers_mod.live_pool_health()
            os.kill(health["pids"][worker - 1], signal.SIGKILL)

        monkeypatch.setattr(workers_mod._WorkerGroup, "fork", fork_then_kill)

    def test_killed_warm_worker_raises_and_leaks_nothing(
        self, sharded, monkeypatch
    ):
        graph, manifest = sharded
        before = psm_segments()
        self._kill_after_spawn(monkeypatch, 1)
        with pytest.raises(
            WorkerFailureError, match=r"worker 1 .*died.*\(exit code -9\)"
        ):
            self._shared_run(graph, manifest)
        assert _repro_workers() == []
        assert leaked_segments(before) == []

    def test_worker_killed_mid_run_raises_and_leaks_nothing(self, tmp_path):
        """SIGKILL a worker once supersteps are in flight (the run has
        received 20 frames): one WorkerFailureError names it, and no
        worker process or segment outlives the run."""
        from repro.stream import workers as workers_mod
        from repro.stream import write_sharded_edges

        # ~8k edges at batch 1 is thousands of supersteps: the run is
        # still streaming long after the 20th frame.
        graph = chung_lu(2000, mean_degree=8, exponent=2.2, seed=5, name="wk")
        manifest = write_sharded_edges(
            graph, tmp_path / "wk.manifest.json", num_shards=4
        )
        before = psm_segments()
        killed = threading.Event()

        def kill_in_flight():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                groups = list(workers_mod._LIVE_GROUPS)
                if groups and groups[0].frames_recv >= 20:
                    # pids lists the forked workers: [0] is worker 1.
                    [health] = workers_mod.live_pool_health()
                    os.kill(health["pids"][0], signal.SIGKILL)
                    killed.set()
                    return
                time.sleep(0.0005)

        killer = threading.Thread(target=kill_in_flight, daemon=True)
        killer.start()
        try:
            with pytest.raises(WorkerFailureError) as excinfo:
                self._shared_run(graph, manifest, batch=1)
        finally:
            killer.join()
        assert killed.is_set()
        assert "worker 1 " in str(excinfo.value)
        assert "died" in str(excinfo.value)
        assert "(exit code -9)" in str(excinfo.value)
        assert _repro_workers() == []
        assert leaked_segments(before) == []

    def test_dead_worker_reports_its_exit_code(self, sharded, monkeypatch):
        """A worker's pipe can close before its process exits: the
        coordinator sees EOF first, joins the worker, then names its
        exit code (``None`` if it read the code at the EOF)."""
        from repro.stream import workers as workers_mod

        def close_then_exit(worker_id, pipes, trace, job):
            workers_mod._claim_pipe(worker_id, pipes).close()
            time.sleep(0.3)
            os._exit(3)

        graph, manifest = sharded
        before = psm_segments()
        monkeypatch.setattr(workers_mod, "_worker_main", close_then_exit)
        with pytest.raises(
            WorkerFailureError, match=r"worker 1 .*died.*\(exit code 3\)"
        ):
            self._shared_run(graph, manifest)
        assert _repro_workers() == []
        assert leaked_segments(before) == []

    def test_truncated_shard_names_worker_and_shard(self, sharded):
        from repro.stream import plan_worker_segments

        graph, manifest = sharded
        segments, _, _, _ = plan_worker_segments(manifest.path, 2)
        # Truncate shard 2 (owned by worker 0) *after* planning — the
        # worker hits it mid-stream, exactly like disk corruption or a
        # concurrent truncation during a long run.
        shard = manifest.shard_paths[2]
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2 - 3])
        before = psm_segments()
        with pytest.raises(WorkerFailureError) as excinfo:
            self._shared_run(graph, manifest, segments=segments)
        message = str(excinfo.value)
        assert "worker 0" in message
        assert "shard-0002" in message
        assert "GraphFormatError" in message
        assert _repro_workers() == []
        assert leaked_segments(before) == []

    def test_driver_recovers_after_warm_failure(self, sharded, monkeypatch):
        """A run whose worker was killed must not poison a fresh job."""
        from repro.runtime import make_job, run_job

        graph, manifest = sharded
        with monkeypatch.context() as patch:
            self._kill_after_spawn(patch, 1)
            with pytest.raises(
                WorkerFailureError,
                match=r"worker 1 .*died.*\(exit code -9\)",
            ):
                self._shared_run(graph, manifest)
        result = run_job(
            make_job("HDRF", manifest.path, 4, workers=2, batch=4)
        )
        assert result.num_unassigned == 0
        assert multiprocessing.active_children() == []

    def test_shared_memory_unavailable_is_one_configuration_error(
        self, sharded, monkeypatch
    ):
        """No usable /dev/shm: a worker run fails with one defined error
        (naming the bytes it asked for), orphans no process and leaks no
        segment; a run that needs no shared memory still works."""
        from multiprocessing import shared_memory

        from repro.parallel import SharedState
        from repro.runtime import make_job, run_job
        from repro.stream import DEFAULT_WORKER_BATCH

        graph, manifest = sharded
        real = shared_memory.SharedMemory

        def no_dev_shm(name=None, create=False, size=0):
            if create:
                raise FileNotFoundError(2, "No such file or directory")
            return real(name=name, create=create, size=size)

        monkeypatch.setattr(shared_memory, "SharedMemory", no_dev_shm)
        before = psm_segments()
        with pytest.raises(ConfigurationError) as excinfo:
            run_job(make_job("HDRF", manifest.path, 8, workers=2))
        requested = SharedState.segment_bytes(
            graph.num_vertices, 8, 2, DEFAULT_WORKER_BATCH
        )
        message = str(excinfo.value)
        assert f"{requested:,}-byte shared-memory segment" in message
        assert "workers=0 needs no shared memory" in message
        assert multiprocessing.active_children() == []
        assert leaked_segments(before) == []
        result = run_job(make_job("HDRF", manifest.path, 8))
        assert result.num_unassigned == 0
