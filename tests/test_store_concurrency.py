"""Concurrency and failure-path tests for the runtime store and pools.

Five load-bearing properties from the service hardening pass:

* two processes racing :meth:`ArtifactStore.put` on the same key never
  raise and never leave a staging directory behind — whoever loses the
  rename treats the winner's byte-identical entry as its own,
* a writer SIGKILLed inside ``put`` leaves only its staging directory,
  which the next ``put`` into the bucket removes (a live writer's
  stays): ``get`` misses until then, and hits after,
* a corrupt or truncated entry is quarantined on first read (entry
  moved under ``root/quarantine/``): ``get`` logs a miss instead of
  raising, ``ArtifactCache.attach`` raises ``MissingEntryError``, and
  the key becomes writable again,
* a ``cancel`` event observed at a stage boundary aborts the run with
  :class:`~repro.errors.JobCancelledError`, persists **no** artifact,
  and an identical resubmit recomputes cleanly,
* a ``KeyboardInterrupt`` landing mid-superstep in a warm shared-memory
  pool still unwinds through every ``finally``: no ``psm_*`` segment
  survives (the session-scoped ``shm_leak_gate`` double-checks) and no
  worker process outlives the run.
"""

import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JobCancelledError
from repro.graph import write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.runtime import ArtifactStore, input_digest, make_job, run_job
from repro.runtime.store import (
    QUARANTINE_DIR,
    STORE_FORMAT,
    MissingEntryError,
)
from repro.serve import ArtifactCache
from shm_leaks import leaked_segments, psm_segments


@pytest.fixture(scope="module")
def graph():
    return chung_lu(300, mean_degree=6, exponent=2.2, seed=31, name="sc")


@pytest.fixture(scope="module")
def edge_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("sc") / "sc.bin"
    write_binary_edgelist(graph, path)
    return path


@pytest.fixture(scope="module")
def manifest(graph, tmp_path_factory):
    from repro.stream import write_sharded_edges

    out = tmp_path_factory.mktemp("scm") / "sc.manifest.json"
    write_sharded_edges(graph, out, num_shards=2)
    return out


def _spec(edge_file):
    return make_job("HDRF", edge_file, 8, chunk_size=256)


def _entry_key(store, spec, edge_file):
    digest = input_digest(spec, edge_file)
    assert digest is not None
    return store.cache_key(spec, digest), digest


def _put_racer(root, edge_file, keys, barrier, errors):
    """Child process body: race ``put`` on each key behind a barrier."""
    try:
        store = ArtifactStore(root)
        spec = _spec(edge_file)
        digest = input_digest(spec, edge_file)
        result = run_job(spec)
        for key in keys:
            barrier.wait(timeout=60)
            entry = store.put(key, result, digest)
            if not (entry / "meta.json").exists():
                raise AssertionError(f"put returned torn entry for {key}")
    except BaseException as exc:  # pragma: no cover - failure reporting
        errors.put(f"{type(exc).__name__}: {exc}")
        raise


class TestConcurrentPut:
    def test_two_writers_race_without_errors_or_leftovers(
        self, edge_file, tmp_path
    ):
        """Both writers survive every rename collision; store stays clean."""
        root = tmp_path / "cache"
        keys = [
            hashlib.sha256(f"race-{i}".encode()).hexdigest()
            for i in range(16)
        ]
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        errors = ctx.Queue()
        procs = [
            ctx.Process(
                target=_put_racer,
                args=(root, edge_file, keys, barrier, errors),
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        reported = []
        while not errors.empty():
            reported.append(errors.get())
        assert not reported, f"racing writers failed: {reported}"
        assert all(p.exitcode == 0 for p in procs)
        # Every key landed exactly one intact entry…
        store = ArtifactStore(root)
        for key in keys:
            meta_path = store.entry_path(key) / "meta.json"
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            assert meta["format"] == STORE_FORMAT
            np.load(store.entry_path(key) / "parts.npy")
        # …and no losing staging directory survived anywhere.
        assert list(Path(root).rglob(".staging-*")) == []

    def test_put_is_idempotent_and_skips_staging_when_present(
        self, edge_file, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        spec = _spec(edge_file)
        result = run_job(spec)
        key, digest = _entry_key(store, spec, edge_file)
        first = store.put(key, result, digest)
        second = store.put(key, result, digest)
        assert first == second
        assert list((tmp_path / "cache").rglob(".staging-*")) == []

    def test_racing_runs_through_run_job_share_one_entry(
        self, edge_file, tmp_path
    ):
        """The end-to-end shape: same spec, same store, two processes."""
        root = tmp_path / "cache"

        def one_run():
            run_job(_spec(edge_file), store=ArtifactStore(root))

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=one_run) for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in procs)
        store = ArtifactStore(root)
        warm = run_job(_spec(edge_file), store=store)
        assert warm.cache_hit and store.hits == 1


@pytest.fixture(scope="module")
def pristine_store(edge_file, tmp_path_factory):
    """A store root holding one good entry: ``(root, spec, key)``."""
    store = ArtifactStore(tmp_path_factory.mktemp("pristine") / "cache")
    spec = _spec(edge_file)
    run_job(spec, store=store)
    key, _ = _entry_key(store, spec, edge_file)
    return store.root, spec, key


class TestQuarantine:
    def _seeded(self, edge_file, tmp_path):
        """A store holding one good entry; returns (store, spec, key)."""
        store = ArtifactStore(tmp_path / "cache")
        spec = _spec(edge_file)
        run_job(spec, store=store)
        key, _ = _entry_key(store, spec, edge_file)
        assert (store.entry_path(key) / "meta.json").exists()
        return store, spec, key

    def test_truncated_meta_is_quarantined_not_raised(
        self, edge_file, tmp_path
    ):
        store, spec, key = self._seeded(edge_file, tmp_path)
        meta_path = store.entry_path(key) / "meta.json"
        meta_path.write_text(meta_path.read_text()[:40], encoding="utf-8")
        fresh = ArtifactStore(store.root)
        assert fresh.get(key, spec) is None
        assert (fresh.misses, fresh.quarantined) == (1, 1)
        assert not store.entry_path(key).exists()
        moved = list((store.root / QUARANTINE_DIR).iterdir())
        assert [p.name for p in moved] == [f"{key}-0"]

    def test_torn_npy_is_quarantined(self, edge_file, tmp_path):
        store, spec, key = self._seeded(edge_file, tmp_path)
        (store.entry_path(key) / "parts.npy").write_bytes(b"not an npy")
        assert store.get(key, spec) is None
        assert store.quarantined == 1

    def test_valid_json_with_missing_keys_is_quarantined(
        self, edge_file, tmp_path
    ):
        store, spec, key = self._seeded(edge_file, tmp_path)
        (store.entry_path(key) / "meta.json").write_text(
            json.dumps({"format": STORE_FORMAT, "algorithm": "HDRF"}),
            encoding="utf-8",
        )
        assert store.get(key, spec) is None
        assert store.quarantined == 1

    def test_valid_json_that_is_not_an_object_is_quarantined(
        self, edge_file, tmp_path
    ):
        store, spec, key = self._seeded(edge_file, tmp_path)
        (store.entry_path(key) / "meta.json").write_text(
            "[]", encoding="utf-8"
        )
        assert store.get(key, spec) is None
        assert store.quarantined == 1

    def test_key_is_writable_again_after_quarantine(
        self, edge_file, tmp_path
    ):
        store, spec, key = self._seeded(edge_file, tmp_path)
        meta_path = store.entry_path(key) / "meta.json"
        meta_path.write_text("{", encoding="utf-8")
        assert store.get(key, spec) is None
        recomputed = run_job(spec, store=store)
        assert not recomputed.cache_hit
        warm = run_job(spec, store=store)
        assert warm.cache_hit
        assert np.array_equal(warm.parts, recomputed.parts)

    def test_repeat_corruption_gets_distinct_quarantine_slots(
        self, edge_file, tmp_path
    ):
        store, spec, key = self._seeded(edge_file, tmp_path)
        for expected in ("-0", "-1"):
            (store.entry_path(key)).mkdir(parents=True, exist_ok=True)
            (store.entry_path(key) / "meta.json").write_text(
                "{", encoding="utf-8"
            )
            assert store.get(key, spec) is None
            assert (
                store.root / QUARANTINE_DIR / f"{key}{expected}"
            ).exists()
        assert store.quarantined == 2

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["meta.json", "parts.npy", "loads.npy"]),
        attach_first=st.booleans(),
        data=st.data(),
    )
    def test_any_truncated_file_is_quarantined_once(
        self, pristine_store, name, attach_first, data
    ):
        """Cut any one of an entry's three files at any byte: ``get``
        misses, ``attach`` raises :class:`MissingEntryError` (a 409 in
        the service), neither raises anything else or returns arrays,
        and the entry is quarantined exactly once."""
        root, spec, key = pristine_store
        with tempfile.TemporaryDirectory() as tmp:
            store = ArtifactStore(Path(tmp) / "cache")
            shutil.copytree(root, store.root)
            path = store.entry_path(key) / name
            blob = path.read_bytes()
            path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
            cache = ArtifactCache(store)

            def via_get():
                assert store.get(key, spec) is None

            def via_attach():
                with pytest.raises(MissingEntryError):
                    cache.attach(key)

            reads = (via_get, via_attach)
            for read in reversed(reads) if attach_first else reads:
                read()
            assert store.quarantined == 1
            assert len(list((store.root / QUARANTINE_DIR).iterdir())) == 1
            assert not store.entry_path(key).exists()

    def test_format_mismatch_is_a_plain_miss_not_corruption(
        self, edge_file, tmp_path
    ):
        store, spec, key = self._seeded(edge_file, tmp_path)
        meta_path = store.entry_path(key) / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["format"] = STORE_FORMAT + 1
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        assert store.get(key, spec) is None
        assert store.quarantined == 0
        assert meta_path.exists()  # left in place for the newer layout


def _hang_in_put(root, key, result, digest, point, ready):
    """Child body: ``put`` until ``point``, signal ``ready``, then hang.

    ``point`` is ``(function, call)``: the child stops right after the
    ``call``-th call of ``tempfile.mkdtemp`` or ``np.save``, or just
    before ``os.replace`` renames the staging directory into place.
    """
    name, call = point
    owner, attr = {
        "mkdtemp": (tempfile, "mkdtemp"), "save": (np, "save"),
        "replace": (os, "replace"),
    }[name]
    real = getattr(owner, attr)
    calls = []

    def hook(*args, **kwargs):
        calls.append(args)
        if len(calls) == call:
            if name != "replace":
                real(*args, **kwargs)
            ready.set()
            time.sleep(600)
        return real(*args, **kwargs)

    with mock.patch.object(owner, attr, hook):
        ArtifactStore(root).put(key, result, digest)


class TestKilledWriter:
    @pytest.mark.parametrize(
        "point",
        [("mkdtemp", 1), ("save", 1), ("save", 2), ("replace", 1)],
        ids=["staging-made", "parts-saved", "loads-saved", "before-rename"],
    )
    def test_dead_writers_staging_is_reclaimed(
        self, edge_file, tmp_path, point
    ):
        """A writer SIGKILLed inside ``put`` leaves only its staging
        directory: ``get`` misses, and the next ``put`` lands, removes
        the dead writer's staging directory and keeps a live one's."""
        spec = _spec(edge_file)
        result = run_job(spec)
        store = ArtifactStore(tmp_path / "cache")
        key, digest = _entry_key(store, spec, edge_file)
        ctx = multiprocessing.get_context("fork")
        ready = ctx.Event()
        child = ctx.Process(
            target=_hang_in_put,
            args=(store.root, key, result, digest, point, ready),
        )
        child.start()
        try:
            assert ready.wait(timeout=60)
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL
        bucket = store.entry_path(key).parent
        dead = list(bucket.glob(f".staging-{child.pid}_*"))
        assert len(dead) == 1
        assert store.get(key, spec) is None
        live = Path(tempfile.mkdtemp(
            prefix=f".staging-{os.getpid()}_", dir=bucket
        ))
        store.put(key, result, digest)
        hit = store.get(key, spec)
        assert hit is not None and np.array_equal(hit.parts, result.parts)
        assert not dead[0].exists() and live.is_dir()
        assert sorted(bucket.glob(".staging-*")) == [live]


class _TripAfter:
    """Event-alike whose ``is_set`` flips true on the n-th check."""

    def __init__(self, trip_at):
        self.trip_at = trip_at
        self.calls = 0

    def is_set(self):
        self.calls += 1
        return self.calls >= self.trip_at


class TestRunJobCancellation:
    def test_pre_set_cancel_runs_nothing_and_persists_nothing(
        self, edge_file, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(JobCancelledError, match="before planning"):
            run_job(_spec(edge_file), store=store, cancel=cancel)
        assert list((tmp_path / "cache").rglob("meta.json")) == []
        assert (store.hits, store.misses) == (0, 1)

    def test_mid_run_cancel_stops_at_stage_boundary(
        self, edge_file, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        # Check 1 = planning, 2 = stage "count", 3 = stage "stream":
        # tripping on the third check cancels after counting but before
        # any assignment lands.
        cancel = _TripAfter(trip_at=3)
        with pytest.raises(JobCancelledError, match="before stage 'stream'"):
            run_job(_spec(edge_file), store=store, cancel=cancel)
        assert list((tmp_path / "cache").rglob("meta.json")) == []

    def test_resubmit_after_cancel_recomputes_cleanly(
        self, edge_file, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        with pytest.raises(JobCancelledError):
            run_job(
                _spec(edge_file), store=store, cancel=_TripAfter(trip_at=3)
            )
        result = run_job(_spec(edge_file), store=store)
        assert not result.cache_hit
        assert result.stages_executed == ("count", "stream", "metrics")
        warm = run_job(_spec(edge_file), store=store)
        assert warm.cache_hit
        assert np.array_equal(warm.parts, result.parts)

    def test_unset_cancel_event_changes_nothing(self, edge_file, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        plain = run_job(_spec(edge_file))
        cancellable = run_job(
            _spec(edge_file), store=store, cancel=threading.Event()
        )
        assert np.array_equal(plain.parts, cancellable.parts)

    def test_multi_worker_cancel_reaps_the_pool(self, manifest, tmp_path):
        spec = make_job("HDRF", manifest, 8, workers=2, chunk_size=256)
        store = ArtifactStore(tmp_path / "cache")
        with pytest.raises(JobCancelledError):
            run_job(spec, store=store, cancel=_TripAfter(trip_at=3))
        assert list((tmp_path / "cache").rglob("meta.json")) == []
        _assert_no_repro_workers()


def _assert_no_repro_workers(deadline_s=10.0):
    """Every ``repro-worker-*`` child must be reaped within the deadline."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        live = [
            p for p in multiprocessing.active_children()
            if p.name.startswith("repro-worker")
        ]
        if not live:
            return
        time.sleep(0.05)
    raise AssertionError(f"worker processes outlived the run: {live}")


class TestWarmPoolInterrupt:
    def _interrupt_run(self, manifest, monkeypatch, trip_at):
        """Run a warm shared-memory job that hits a KeyboardInterrupt."""
        from repro.stream import workers as workers_mod

        original = workers_mod.StateService.begin_superstep
        state = {"calls": 0}

        def boom(self):
            state["calls"] += 1
            if state["calls"] >= trip_at:
                raise KeyboardInterrupt
            return original(self)

        monkeypatch.setattr(
            workers_mod.StateService, "begin_superstep", boom
        )
        spec = make_job(
            "HDRF", manifest, 8,
            workers=2, batch=2, chunk_size=256,
        )
        with pytest.raises(KeyboardInterrupt):
            run_job(spec)

    @pytest.mark.skipif(
        not Path("/dev/shm").is_dir(), reason="no /dev/shm on this platform"
    )
    def test_interrupt_mid_superstep_leaks_no_segments_or_workers(
        self, manifest, monkeypatch
    ):
        before = psm_segments()
        self._interrupt_run(manifest, monkeypatch, trip_at=2)
        _assert_no_repro_workers()
        assert leaked_segments(before) == []

    @pytest.mark.skipif(
        not Path("/dev/shm").is_dir(), reason="no /dev/shm on this platform"
    )
    def test_interrupt_before_first_superstep_leaks_nothing(
        self, manifest, monkeypatch
    ):
        before = psm_segments()
        self._interrupt_run(manifest, monkeypatch, trip_at=1)
        _assert_no_repro_workers()
        assert leaked_segments(before) == []

    def test_pool_health_registry_is_empty_after_clean_run(self, manifest):
        from repro.stream.workers import live_pool_health

        spec = make_job("HDRF", manifest, 8, workers=2, chunk_size=256)
        run_job(spec)
        assert live_pool_health() == []
