"""The shared-memory data plane: segment contracts, kernels, warm reuse.

Worker batches land in scratch lanes of one shared segment and the
coordinator publishes snapshots by flipping a double buffer.  The
end-to-end property — a shared-memory run is **bit-identical** to the
in-process ``bsp_hdrf_stream`` oracle for any graph × workers × batch —
is pinned in ``tests/test_stream_workers.py``.  This file pins the
pieces underneath it: the commit/aging contract of
:class:`~repro.parallel.shm.SharedState`, the bitwise equality of
:class:`~repro.parallel.kernel.FusedBatchScorer` against the reference
scorer, warm-pool reuse across jobs (against the oracle), HEP's
single-worker phase two against sequential HEP, and the
no-leaked-segments invariant the CI gate also enforces.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.generators import chung_lu
from repro.parallel import (
    FusedBatchScorer,
    SharedArray,
    SharedState,
    bsp_hdrf_stream,
)
from repro.parallel.kernel import apply_delta, score_batch_on_snapshot
from repro.partition.base import capacity_bound
from repro.partition.state import StreamingState
from repro.runtime import make_job, run_job
from repro.stream import (
    DEFAULT_CHUNK_SIZE,
    PersistentWorkerPool,
    open_edge_source,
    plan_worker_segments,
    run_bsp_shared,
    scan_stats,
    write_sharded_edges,
)
from repro.stream.scan import scan_source


@pytest.fixture(scope="module")
def graph():
    return chung_lu(400, mean_degree=8, exponent=2.1, seed=23, name="shm")


@pytest.fixture(scope="module")
def manifest(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("shm") / "shm.manifest.json"
    return write_sharded_edges(graph, out, num_shards=4)


def _oracle_parts(graph, workers, batch, streams, k=8):
    capacity = capacity_bound(graph.num_edges, k, 1.0)
    state = StreamingState(
        graph.num_vertices, k, capacity, exact_degrees=graph.degrees
    )
    parts = np.full(graph.num_edges, -1, dtype=np.int32)
    bsp_hdrf_stream(
        state, graph.edges, np.arange(graph.num_edges), parts,
        workers, batch=batch, streams=streams,
    )
    return parts


def _psm_segments():
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return None
    return {p.name for p in shm_dir.glob("psm_*")}


class TestSharedArray:
    def test_create_attach_roundtrip(self):
        data = np.arange(12, dtype=np.int32).reshape(3, 4)
        owner = SharedArray.create(data)
        try:
            np.testing.assert_array_equal(owner.array, data)
            reader = SharedArray.attach(owner.name, (3, 4), np.int32)
            np.testing.assert_array_equal(reader.array, data)
            # Same segment: a write on one side is visible on the other.
            owner.array[1, 2] = -7
            assert reader.array[1, 2] == -7
            reader.close()
        finally:
            owner.close()
            owner.unlink()

    def test_attach_size_mismatch_rejected(self):
        owner = SharedArray.create(np.zeros(4, dtype=np.int8))
        try:
            with pytest.raises(ConfigurationError, match="bytes"):
                SharedArray.attach(owner.name, (4,), np.int64)
        finally:
            owner.close()
            owner.unlink()

    def test_view_invalid_after_close(self):
        owner = SharedArray.create(np.zeros(3))
        owner.close()
        with pytest.raises(ConfigurationError, match="after close"):
            owner.array
        owner.unlink()

    def test_unlink_is_idempotent_and_owner_only(self):
        owner = SharedArray.create(np.ones(2))
        reader = SharedArray.attach(owner.name, (2,), np.float64)
        reader.close()
        reader.unlink()  # non-owner: a no-op, segment survives
        again = SharedArray.attach(owner.name, (2,), np.float64)
        again.close()
        owner.close()
        owner.unlink()
        owner.unlink()  # idempotent


class TestSharedState:
    def _make(self, n=30, k=4, workers=2, batch=4, seed=7):
        rng = np.random.default_rng(seed)
        degrees = rng.integers(1, 10, size=n).astype(np.int64)
        replicas = np.zeros((k, n), dtype=bool)
        loads = np.zeros(k, dtype=np.int64)
        shared = SharedState.create(
            n, k, workers, batch, degrees, replicas, loads
        )
        return shared, rng, degrees

    def test_segment_bytes_matches_mapped_views(self):
        shared, _, _ = self._make()
        try:
            assert shared.nbytes == SharedState.segment_bytes(30, 4, 2, 4)
        finally:
            shared.close()
            shared.unlink()

    def test_create_seeds_both_buffers(self):
        rng = np.random.default_rng(3)
        replicas = rng.random((4, 30)) < 0.2
        loads = rng.integers(0, 9, size=4).astype(np.int64)
        degrees = np.ones(30, dtype=np.int64)
        shared = SharedState.create(30, 4, 2, 4, degrees, replicas, loads)
        try:
            for index in range(2):
                snap_replicas, snap_loads = shared.snapshot(index)
                np.testing.assert_array_equal(snap_replicas, replicas)
                np.testing.assert_array_equal(snap_loads, loads)
            # Views pin the mapping; drop them before close() so the
            # segment's finalizer never sees exported pointers.
            del snap_replicas, snap_loads
        finally:
            shared.close()
            shared.unlink()

    def test_commit_ages_buffers_like_live_state(self):
        # The double-buffer replay contract: after every commit the
        # *published* buffer equals a live state that applied every
        # delta so far, even though each buffer is two commits stale.
        shared, rng, _ = self._make()
        live_replicas = np.zeros((4, 30), dtype=bool)
        live_loads = np.zeros(4, dtype=np.int64)
        try:
            for _ in range(7):
                us = rng.integers(0, 30, size=5)
                vs = rng.integers(0, 30, size=5)
                ps = rng.integers(0, 4, size=5)
                apply_delta(live_replicas, live_loads, us, vs, ps)
                published = shared.commit(us, vs, ps)
                assert published == shared.published
                snap_replicas, snap_loads = shared.snapshot(published)
                np.testing.assert_array_equal(snap_replicas, live_replicas)
                np.testing.assert_array_equal(snap_loads, live_loads)
            del snap_replicas, snap_loads
        finally:
            shared.close()
            shared.unlink()

    def test_attached_reader_sees_committed_snapshots(self):
        shared, rng, degrees = self._make()
        reader = SharedState.attach(shared.name, 30, 4, 2, 4)
        try:
            np.testing.assert_array_equal(reader.degrees, degrees)
            us = rng.integers(0, 30, size=5)
            vs = rng.integers(0, 30, size=5)
            ps = rng.integers(0, 4, size=5)
            published = shared.commit(us, vs, ps)
            own_replicas, own_loads = shared.snapshot(published)
            far_replicas, far_loads = reader.snapshot(published)
            np.testing.assert_array_equal(far_replicas, own_replicas)
            np.testing.assert_array_equal(far_loads, own_loads)
            del own_replicas, own_loads, far_replicas, far_loads
        finally:
            reader.close()
            shared.close()
            shared.unlink()

    def test_lane_roundtrip_fast_and_slow(self):
        shared, rng, _ = self._make(batch=6)
        try:
            eids = np.arange(4, dtype=np.int64)
            us = rng.integers(0, 30, size=4)
            vs = rng.integers(0, 30, size=4)
            ps = rng.integers(0, 4, size=4)
            shared.write_batch(1, eids, us, vs, ps=ps)
            got = shared.read_batch(1, 4, slow=False)
            for want, have in zip((eids, us, vs, ps), got):
                np.testing.assert_array_equal(have, want)
            scores = rng.random((3, 4))
            shared.write_batch(0, eids[:3], us[:3], vs[:3], scores=scores)
            *_, got_scores = shared.read_batch(0, 3, slow=True)
            np.testing.assert_array_equal(
                got_scores.view(np.uint64), scores.view(np.uint64)
            )
            del got, got_scores, have, _
        finally:
            shared.close()
            shared.unlink()

    def test_attach_size_mismatch_rejected(self):
        shared, _, _ = self._make()
        try:
            with pytest.raises(ConfigurationError, match="bytes"):
                SharedState.attach(shared.name, 30_000, 4, 2, 4)
        finally:
            shared.close()
            shared.unlink()

    def test_dimensions_validated(self):
        degrees = np.ones(4, dtype=np.int64)
        replicas = np.zeros((2, 4), dtype=bool)
        loads = np.zeros(2, dtype=np.int64)
        with pytest.raises(ConfigurationError, match=">= 1"):
            SharedState.create(4, 2, 0, 4, degrees, replicas, loads)
        with pytest.raises(ConfigurationError, match=">= 1"):
            SharedState.create(4, 2, 2, 0, degrees, replicas, loads)

    def test_unlink_is_idempotent(self):
        shared, _, _ = self._make()
        shared.close()
        shared.unlink()
        shared.unlink()


class TestFusedBatchScorer:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        n, k, b = 50, 6, 16
        replicas = rng.random((k, n)) < 0.3
        loads = rng.integers(0, 100, size=k).astype(np.int64)
        # Keep zero-degree vertices so the theta = 0.5 branch is hit.
        degrees = rng.integers(0, 12, size=n).astype(np.int64)
        us = rng.integers(0, n, size=b)
        vs = rng.integers(0, n, size=b)
        scorer = FusedBatchScorer(k, b, lam=1.1, eps=1.0)
        got = scorer.scores(replicas, loads, degrees, us, vs)
        want = score_batch_on_snapshot(
            replicas, loads, degrees, us, vs, 1.1, 1.0
        )
        np.testing.assert_array_equal(
            got.view(np.uint64), want.view(np.uint64)
        )

    def test_short_batches_reuse_the_buffer(self):
        rng = np.random.default_rng(9)
        n, k = 20, 4
        replicas = rng.random((k, n)) < 0.5
        loads = rng.integers(0, 10, size=k).astype(np.int64)
        degrees = rng.integers(1, 5, size=n).astype(np.int64)
        scorer = FusedBatchScorer(k, max_batch=8, lam=1.1, eps=1.0)
        us = rng.integers(0, n, size=3)
        vs = rng.integers(0, n, size=3)
        first = scorer.scores(replicas, loads, degrees, us, vs)
        assert first.shape == (3, k)
        kept = first.copy()
        # The next call overwrites the shared buffer in place — callers
        # must consume or copy rows first (the documented contract).
        scorer.scores(replicas, loads, degrees, vs, us)
        assert first.base is not None
        np.testing.assert_array_equal(
            kept,
            score_batch_on_snapshot(
                replicas, loads, degrees, us, vs, 1.1, 1.0
            ),
        )

    def test_dimensions_validated(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            FusedBatchScorer(0, 8, lam=1.1, eps=1.0)
        with pytest.raises(ConfigurationError, match=">= 1"):
            FusedBatchScorer(4, 0, lam=1.1, eps=1.0)


class TestHdrfDifferential:
    def test_no_segment_leaks_after_runs(self, manifest):
        before = _psm_segments()
        if before is None:
            pytest.skip("no /dev/shm on this platform")
        run_job(make_job("HDRF", manifest.path, 8, workers=2, batch=8))
        after = _psm_segments()
        assert after - before == set()


class TestHepDifferential:
    def test_single_worker_matches_sequential_hep(self, manifest):
        seq = run_job(make_job("HEP", manifest.path, 8, tau=2.0))
        shm = run_job(
            make_job("HEP", manifest.path, 8, workers=1, batch=1, tau=2.0)
        )
        np.testing.assert_array_equal(shm.parts, seq.parts)
        assert shm.replication_factor == seq.replication_factor


class TestWarmPoolReuse:
    def test_one_pool_serves_many_jobs_identically(self, graph, manifest):
        segments, streams, m, _ = plan_worker_segments(manifest.path, 2)
        oracle = _oracle_parts(graph, 2, 8, streams)
        sequential = scan_source(
            open_edge_source(manifest.path, DEFAULT_CHUNK_SIZE)
        )
        pool = PersistentWorkerPool(2)
        pool.start()
        try:
            for _ in range(3):
                capacity = capacity_bound(m, 8, 1.0)
                state = StreamingState(
                    graph.num_vertices, 8, capacity,
                    exact_degrees=graph.degrees,
                )
                parts = np.full(m, -1, dtype=np.int32)
                run_bsp_shared(pool, segments, state, parts, batch=8)
                np.testing.assert_array_equal(parts, oracle)
            # The same warm workers then run a counting sweep.
            stats = scan_stats(
                manifest.path,
                open_edge_source(manifest.path, DEFAULT_CHUNK_SIZE),
                2, pool=pool,
            )
        finally:
            pool.shutdown()
        assert stats.num_edges == sequential.num_edges
        np.testing.assert_array_equal(stats.degrees, sequential.degrees)

    def test_narrow_schedule_on_a_wide_pool(self, graph, manifest):
        # Spare pool workers get empty segment lists; the schedule is
        # len(segments) wide, so results match the 2-worker oracle.
        segments, streams, m, _ = plan_worker_segments(manifest.path, 2)
        oracle = _oracle_parts(graph, 2, 8, streams)
        pool = PersistentWorkerPool(4)
        pool.start()
        try:
            capacity = capacity_bound(m, 8, 1.0)
            state = StreamingState(
                graph.num_vertices, 8, capacity,
                exact_degrees=graph.degrees,
            )
            parts = np.full(m, -1, dtype=np.int32)
            run_bsp_shared(pool, segments, state, parts, batch=8)
        finally:
            pool.shutdown()
        np.testing.assert_array_equal(parts, oracle)

    def test_schedule_wider_than_pool_rejected(self, graph, manifest):
        segments, _, m, _ = plan_worker_segments(manifest.path, 4)
        pool = PersistentWorkerPool(2)
        pool.start()
        try:
            capacity = capacity_bound(m, 8, 1.0)
            state = StreamingState(
                graph.num_vertices, 8, capacity,
                exact_degrees=graph.degrees,
            )
            parts = np.full(m, -1, dtype=np.int32)
            with pytest.raises(ConfigurationError, match="pool has only"):
                run_bsp_shared(pool, segments, state, parts, batch=8)
        finally:
            pool.shutdown()
