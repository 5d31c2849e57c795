"""Failure-injection tests: corrupted inputs, hostile parameters, and
boundary conditions must fail loudly with library exceptions, never
silently corrupt results — including worker processes dying
mid-superstep."""

import multiprocessing
import os
import signal
from pathlib import Path

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
from repro.core import HepPartitioner, select_tau
from repro.partition import HdrfPartitioner, PartitionAssignment


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
        a = HepPartitioner(tau=10.0).partition(g, 16)
        assert a.num_unassigned == 0
        assert a.partition_sizes().sum() == 2

    def test_k_one_rejected_everywhere(self, graph):
        for partitioner in (HepPartitioner(), HdrfPartitioner()):
            with pytest.raises(ConfigurationError):
                partitioner.partition(graph, 1)

    def test_empty_graph_rejected(self):
        g = Graph.from_edges(np.empty((0, 2)), num_vertices=5)
        with pytest.raises(PartitioningError):
            HdrfPartitioner().partition(g, 2)

    def test_negative_tau(self):
        with pytest.raises(ConfigurationError):
            HepPartitioner(tau=-1.0)

    def test_impossible_budget(self, graph):
        with pytest.raises(ConfigurationError):
            select_tau(graph, memory_budget_bytes=1, k=4)

    def test_all_errors_are_repro_errors(self):
        for exc in (ConfigurationError, GraphFormatError, PartitioningError):
            assert issubclass(exc, ReproError)


class TestBoundaryGraphs:
    def test_single_edge(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        a = HepPartitioner(tau=1.0).partition(g, 2)
        assert a.num_unassigned == 0

    def test_two_vertices_many_partitions(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        a = HdrfPartitioner().partition(g, 8)
        assert int((a.partition_sizes() > 0).sum()) == 1

    def test_complete_graph(self):
        n = 12
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(edges, num_vertices=n)
        for tau in (0.5, 2.0):
            a = HepPartitioner(tau=tau).partition(g, 4)
            assert a.num_unassigned == 0
            assert a.partition_sizes().sum() == g.num_edges

    def test_disconnected_isolated_heavy(self):
        # A clique plus many isolated vertices: isolated ids must not
        # perturb metrics or partitioning.
        clique = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = Graph.from_edges(clique, num_vertices=1000)
        a = HepPartitioner(tau=2.0).partition(g, 3)
        assert a.num_unassigned == 0
        from repro.metrics import replication_factor

        assert 1.0 <= replication_factor(a) <= 3.0

    def test_path_graph_chain(self):
        edges = [(i, i + 1) for i in range(99)]
        g = Graph.from_edges(edges, num_vertices=100)
        a = HepPartitioner(tau=100.0).partition(g, 4)
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


@pytest.mark.slow
class TestWarmPoolFailures:
    """A warm worker killed mid-superstep or a shard truncated mid-pass
    must surface as *one* clean :class:`WorkerFailureError` naming the
    worker and its shard, leave no orphan processes, and leak no
    ``/dev/shm`` segment (the coordinator unlinks in its ``finally``
    even on the failure path)."""

    @pytest.fixture()
    def sharded(self, tmp_path):
        from repro.stream import write_sharded_edges

        graph = chung_lu(300, mean_degree=8, exponent=2.2, seed=5, name="wf")
        manifest = write_sharded_edges(
            graph, tmp_path / "wf.manifest.json", num_shards=4
        )
        return graph, manifest

    @staticmethod
    def _psm_segments():
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():
            return None
        return {p.name for p in shm_dir.glob("psm_*")}

    def _shared_run(self, graph, manifest, pool, workers=2, batch=2):
        from repro.partition.base import capacity_bound
        from repro.partition.state import StreamingState
        from repro.stream import plan_worker_segments, run_bsp_shared

        segments, _, _, _ = plan_worker_segments(manifest.path, workers)
        capacity = capacity_bound(graph.num_edges, 4, 1.0)
        state = StreamingState(
            graph.num_vertices, 4, capacity, exact_degrees=graph.degrees
        )
        parts = np.full(graph.num_edges, -1, dtype=np.int32)
        return run_bsp_shared(
            pool, segments, state, parts, batch=batch, chunk_size=64
        )

    def test_killed_warm_worker_raises_and_leaks_nothing(self, sharded):
        from repro.stream import PersistentWorkerPool

        graph, manifest = sharded
        before = self._psm_segments()
        pool = PersistentWorkerPool(2, timeout=30.0)
        pool.start()
        os.kill(pool.pids[1], signal.SIGKILL)
        with pytest.raises(WorkerFailureError, match=r"worker 1 .*died"):
            self._shared_run(graph, manifest, pool)
        pool.shutdown()
        assert multiprocessing.active_children() == []
        if before is not None:
            assert self._psm_segments() - before == set()

    def test_truncated_shard_names_worker_and_shard(self, sharded):
        from repro.stream import PersistentWorkerPool

        graph, manifest = sharded
        # Truncate shard 2 (owned by worker 0) *after* planning — the
        # worker hits it mid-stream, exactly like disk corruption or a
        # concurrent truncation during a long run.
        shard = manifest.shard_paths[2]
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2 - 3])
        before = self._psm_segments()
        pool = PersistentWorkerPool(2, timeout=30.0)
        try:
            pool.start()
            with pytest.raises(WorkerFailureError) as excinfo:
                self._shared_run(graph, manifest, pool)
        finally:
            pool.shutdown()
        message = str(excinfo.value)
        assert "worker 0" in message
        assert "shard-0002" in message
        assert "GraphFormatError" in message
        assert multiprocessing.active_children() == []
        if before is not None:
            assert self._psm_segments() - before == set()

    def test_driver_recovers_after_warm_failure(self, sharded):
        """A killed warm run must not poison a fresh shared-memory run."""
        from repro.runtime import make_job, run_job
        from repro.stream import PersistentWorkerPool

        graph, manifest = sharded
        pool = PersistentWorkerPool(2, timeout=30.0)
        pool.start()
        os.kill(pool.pids[0], signal.SIGKILL)
        with pytest.raises(WorkerFailureError):
            self._shared_run(graph, manifest, pool)
        pool.shutdown()
        result = run_job(
            make_job("HDRF", manifest.path, 4, workers=2, batch=4)
        )
        assert result.num_unassigned == 0
        assert multiprocessing.active_children() == []

    def test_shutdown_is_idempotent(self):
        from repro.stream import PersistentWorkerPool

        pool = PersistentWorkerPool(2)
        pool.start()
        pool.shutdown()
        pool.shutdown()
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
        before = self._psm_segments()
        with pytest.raises(ConfigurationError) as excinfo:
            run_job(make_job("HDRF", manifest.path, 8, workers=2))
        requested = SharedState.segment_bytes(
            graph.num_vertices, 8, 2, DEFAULT_WORKER_BATCH
        )
        message = str(excinfo.value)
        assert f"{requested:,}-byte shared-memory segment" in message
        assert "workers=0 and metrics_workers<=1" in message
        assert multiprocessing.active_children() == []
        if before is not None:
            assert self._psm_segments() - before == set()
        result = run_job(make_job("HDRF", manifest.path, 8))
        assert result.num_unassigned == 0
