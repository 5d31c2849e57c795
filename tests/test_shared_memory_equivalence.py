"""The shared-memory data plane: segment contracts and kernels.

Worker batches land in scratch lanes of one shared segment and the
coordinator publishes snapshots by flipping a double buffer.  The
end-to-end property — a shared-memory run is **bit-identical** to the
in-process ``bsp_hdrf_stream`` oracle for any graph × workers × batch —
is pinned in ``tests/test_stream_workers.py``.  This file pins the
pieces underneath it: the commit/aging contract of
:class:`~repro.parallel.shm.SharedState`, HEP's single-worker phase
two against sequential HEP, and the no-leaked-segments invariant the
CI gate also enforces.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.generators import chung_lu
from repro.parallel import SharedState
from repro.parallel.kernel import apply_delta
from repro.runtime import make_job, run_job
from repro.stream import write_sharded_edges
from shm_leaks import leaked_segments, psm_segments


@pytest.fixture(scope="module")
def graph():
    return chung_lu(400, mean_degree=8, exponent=2.1, seed=23, name="shm")


@pytest.fixture(scope="module")
def manifest(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("shm") / "shm.manifest.json"
    return write_sharded_edges(graph, out, num_shards=4)


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

    def test_segment_name_carries_the_creator_pid(self):
        shared, _, _ = self._make()
        try:
            prefix, pid, token = shared.name.split("_")
            assert (prefix, int(pid)) == ("psm", os.getpid())
            assert len(token) == 8 and int(token, 16) >= 0
            assert len(shared.name) <= 20
        finally:
            shared.close()
            shared.unlink()


_CREATE_SEGMENT = """
import sys
from repro.parallel.shm import _create_untracked, _unlink_quietly
shm = _create_untracked(64)
print(shm.name, flush=True)
if sys.argv[1] == "wait":
    sys.stdin.readline()
    _unlink_quietly(shm)
"""


class TestDeadSegmentReclaim:
    def test_create_reclaims_only_dead_creators_segments(self):
        """A creator that exits without unlinking orphans its segment;
        the next create removes it, and a live creator's stays."""
        if psm_segments() is None:
            pytest.skip("no /dev/shm on this platform")
        import repro

        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        child = [sys.executable, "-c", _CREATE_SEGMENT]
        # The live creator goes first: any create reclaims orphans.
        live = subprocess.Popen([*child, "wait"], env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        orphan = ""
        try:
            kept = live.stdout.readline().strip()
            dead = subprocess.run([*child, "exit"], env=env, check=True,
                                  capture_output=True, text=True, timeout=60)
            orphan = dead.stdout.strip()
            assert {orphan, kept} <= psm_segments()
            shared, _, _ = TestSharedState()._make()
            shared.close()
            shared.unlink()
            dead_pid = orphan.split("_")[1]
            after = psm_segments()
            assert not any(n.startswith(f"psm_{dead_pid}_") for n in after)
            assert kept in after
        finally:
            live.communicate("\n", timeout=60)
            if orphan:
                Path("/dev/shm", orphan).unlink(missing_ok=True)
        assert live.returncode == 0 and kept not in psm_segments()


class TestLeakCheck:
    """The leak check blames the session only for its own segments and
    for orphans; a live process's segments are that process's."""

    def test_reports_own_and_orphaned_segments_only(self):
        reaped = subprocess.Popen([sys.executable, "-c", "pass"])
        reaped.wait()
        own = f"psm_{os.getpid()}_0badc0de"
        orphan = f"psm_{reaped.pid}_0badc0de"
        other_live = f"psm_{os.getppid()}_0badc0de"
        unattributed = "psm_0badc0de"
        before = {"psm_1_00000000"}
        after = before | {own, orphan, other_live, unattributed}
        assert leaked_segments(before, after) == sorted([own, orphan])
        assert leaked_segments(None, after) == []


class TestHdrfDifferential:
    def test_no_segment_leaks_after_runs(self, manifest):
        before = psm_segments()
        if before is None:
            pytest.skip("no /dev/shm on this platform")
        run_job(make_job("HDRF", manifest.path, 8, workers=2, batch=8))
        assert leaked_segments(before) == []


class TestHepDifferential:
    def test_single_worker_matches_sequential_hep(self, manifest):
        seq = run_job(make_job("HEP", manifest.path, 8, tau=2.0))
        shm = run_job(
            make_job("HEP", manifest.path, 8, workers=1, batch=1, tau=2.0)
        )
        np.testing.assert_array_equal(shm.parts, seq.parts)
        assert shm.replication_factor == seq.replication_factor
