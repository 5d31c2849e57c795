"""Shared-memory BSP state: numpy views over one ``/dev/shm`` segment.

The multi-worker data plane is one :mod:`multiprocessing.shared_memory`
segment that workers and the coordinator map as plain numpy views;
pipes carry only tiny control frames (a one-byte tag plus the spill
frame header).  Shipping state over pipes instead — every worker
encoding its batch and re-applying every merged delta to a private
snapshot copy — costs ``O(workers² · batch)`` framed bytes and
``O(workers · batch)`` redundant apply work per superstep.  Two ideas
make the shared segment bit-identical to the in-process
:func:`~repro.parallel.bsp_streaming.bsp_hdrf_stream`:

* **Double-buffered snapshot/commit** (:class:`SharedState`): the
  replica cover and per-partition loads exist twice in the segment.
  Workers only ever read the *published* buffer — by the BSP invariant
  it equals the live state at the start of the superstep they are
  scoring.  Once every lane of a superstep is in, no worker reads
  either buffer, so :meth:`SharedState.commit` applies the superstep's
  merged delta to the *staging* buffer and flips the published index.
  The flip happens-before the ``COMMIT`` control frame that releases
  the workers, so no worker can observe a torn snapshot.  The buffer
  that was just unpublished now lacks that one delta;
  :meth:`SharedState.catch_up` replays it there while the workers
  score the next superstep, in ``O(batch)`` — no full-state copy.
  ``commit`` runs a pending catch-up itself, so a caller that never
  calls ``catch_up`` still sees a current snapshot after each commit.
* **Per-worker scratch lanes**: each worker owns a fixed slice of the
  segment where it writes its batch (edge ids, endpoints, and either
  chosen partitions or the full score matrix near capacity).  The
  control frame carries only the record count; the coordinator reads
  the lane directly — nothing is pickled on the hot path.

Segment lifetime: the creator (coordinator) owns the name and must
:meth:`~SharedState.unlink` it (the drivers do so in ``finally``
blocks); workers attach by name and detach with
:meth:`~SharedState.close`.  Neither side ever talks to
``multiprocessing.resource_tracker``: the tracker assumes every mapped
segment is owned and unlinks it on process exit (tearing live segments
out from under the coordinator when a worker exits first), and its
per-name cache is a *set*, so the registrations of two workers
attaching concurrently collapse into one entry and the second
deregistration crashes the tracker loop with ``KeyError`` noise.
Python 3.13 grew ``track=False`` for exactly this; on 3.10–3.12 the
register/unregister calls are suppressed instead
(:func:`_tracker_paused`).  Leak safety is owned by the explicit
``finally`` unlinks plus the test-session and CI ``psm_*`` gates; a
process killed before its unlink leaves a segment that the next
segment creation on the host removes (:func:`_reclaim_dead_segments`).
"""

from __future__ import annotations

import contextlib
import os
import secrets
import threading
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.parallel.kernel import apply_delta

__all__ = ["SharedState", "owner_is_dead"]

_TRIPLE_FIELDS = 3  # eids, us, vs — one scratch column each

_TRACKER_LOCK = threading.Lock()


@contextlib.contextmanager
def _tracker_paused():
    """Suppress ``resource_tracker`` traffic for one shm call.

    ``SharedMemory`` registers the name on *both* create and attach and
    unregisters it on unlink; the module docstring explains why any of
    those messages is wrong for a segment whose lifetime the drivers
    manage explicitly.  ``shared_memory.py`` resolves both functions as
    module attributes at call time, so swapping them for no-ops around
    the call is exactly Python 3.13's ``track=False`` — the lock only
    serializes this process's own threads.
    """
    with _TRACKER_LOCK:
        saved = (resource_tracker.register, resource_tracker.unregister)
        resource_tracker.register = lambda name, rtype: None
        resource_tracker.unregister = lambda name, rtype: None
        try:
            yield
        finally:
            resource_tracker.register = saved[0]
            resource_tracker.unregister = saved[1]


def owner_is_dead(name: str, prefix: str) -> bool:
    """Whether ``name`` is ``<prefix><pid>_...`` and that pid is gone.

    The one liveness rule for what killed processes leave behind: a
    name without a pid is never dead, and a pid this process may not
    signal counts as alive.  Pids are judged in this pid namespace.
    """
    if not name.startswith(prefix):
        return False
    pid, sep, _ = name[len(prefix):].partition("_")
    if not sep or not pid.isdigit() or int(pid) < 1:
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OverflowError):
        pass  # alive under another user, or no valid pid at all
    return False


def _reclaim_dead_segments() -> None:
    """Unlink every ``psm_<pid>_*`` segment whose creator no longer exists.

    A coordinator killed before its ``finally`` unlink — or between
    ``shm_open`` and ``ftruncate``, which leaves 0 bytes — orphans its
    segment, and nothing else ever removes it.  This assumes
    ``/dev/shm`` belongs to one pid namespace: a creator alive in
    another namespace would look dead here (:func:`owner_is_dead`).  A
    host without a ``/dev/shm`` directory has nothing to reclaim.
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return
    for path in shm_dir.glob("psm_*"):
        if owner_is_dead(path.name, "psm_"):
            # Gone already (another creator reclaimed it) or another
            # user's in the sticky directory: either way not ours to fix.
            with contextlib.suppress(FileNotFoundError, PermissionError):
                path.unlink()


def _create_untracked(size: int) -> shared_memory.SharedMemory:
    """Create a fresh segment whose lifetime *we* manage, not the tracker.

    Every segment the package creates goes through here, so a host
    without usable shared memory (no ``/dev/shm``, a full or read-only
    one) fails with one :class:`~repro.errors.ConfigurationError`.
    The name is ``psm_<creator pid>_<8 hex>`` (at most 20 characters,
    inside macOS's 31), so a leak gate can tell this process's
    segments from those of other live processes; a name clash retries.
    The segments of dead creators are reclaimed first.
    """
    _reclaim_dead_segments()
    try:
        with _tracker_paused():
            while True:
                name = f"psm_{os.getpid()}_{secrets.token_hex(4)}"
                try:
                    return shared_memory.SharedMemory(
                        name=name, create=True, size=size
                    )
                except FileExistsError:
                    continue
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create a {size:,}-byte shared-memory segment ({exc}); "
            f"worker processes exchange state through shared memory, so "
            f"this host cannot run them — a run with workers=0 needs no "
            f"shared memory"
        ) from exc


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to segment ``name`` without this process tracking it."""
    with _tracker_paused():
        return shared_memory.SharedMemory(name=name)


def _unlink_quietly(shm: shared_memory.SharedMemory) -> None:
    """Remove the segment name, idempotently and without tracker noise."""
    with _tracker_paused():
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _close_quietly(shm: shared_memory.SharedMemory) -> None:
    """Close a segment, tolerating numpy views that still pin the map.

    ``mmap.close`` raises :class:`BufferError` while any exported view
    is alive (on the failure path the propagating traceback can pin
    views in cycle garbage).  In that case the mapping is handed over
    to the views — they keep the ``mmap`` object alive and it unmaps
    when the last one dies — and the descriptor is released here, so
    ``SharedMemory.__del__`` never retries the close and re-raises
    during interpreter-shutdown GC (where collection order between the
    segment and its views is arbitrary).  The *name* (what leak gates
    watch) is governed by ``unlink``, not by this call.
    """
    try:
        shm.close()
    except BufferError:
        shm._mmap = None
        if getattr(shm, "_fd", -1) >= 0:
            os.close(shm._fd)
            shm._fd = -1


class SharedState:
    """Double-buffered BSP streaming state in one shared segment.

    Layout (8-byte-aligned int64/float64 regions first, the bool
    replica covers last)::

        degrees   n int64                     read-only after create
        loads     2 × k int64                 double-buffered
        scratch   workers × lane bytes        per-worker batch lanes
        replicas  2 × (k × n) bool            double-buffered

    One *lane* holds a full batch: ``3 × batch`` int64 (eids, us, vs)
    followed by the payload region — ``batch`` int64 partitions on the
    fast path or a ``batch × k`` float64 score matrix near capacity
    (the float64 region bounds both).

    Workers read snapshots (:meth:`snapshot`) and write lanes
    (:meth:`write_batch`); the coordinator reads lanes
    (:meth:`read_batch`), advances the published snapshot
    (:meth:`commit`) and brings the other buffer level with it
    (:meth:`catch_up`).  The commit/flip ordering contract is the
    module docstring's.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        num_vertices: int,
        k: int,
        workers: int,
        batch: int,
        owner: bool,
    ) -> None:
        """Wrap an open segment; use :meth:`create`/:meth:`attach`."""
        self._shm = shm
        self._owner = owner
        self.num_vertices = int(num_vertices)
        self.k = int(k)
        self.workers = int(workers)
        self.batch = int(batch)
        self.published = 0
        self._pending: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

        n, k_, w, b = self.num_vertices, self.k, self.workers, self.batch
        buf = shm.buf
        off = 0

        def view(count: int, dtype) -> np.ndarray:
            nonlocal off
            dtype = np.dtype(dtype)
            array = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
            off += count * dtype.itemsize
            return array

        self._degrees = view(n, np.int64)
        self._loads = [view(k_, np.int64) for _ in range(2)]
        self._lane_triples: list[np.ndarray] = []
        self._lane_parts: list[np.ndarray] = []
        self._lane_scores: list[np.ndarray] = []
        for _ in range(w):
            self._lane_triples.append(view(_TRIPLE_FIELDS * b, np.int64))
            payload = view(b * k_, np.int64)
            self._lane_parts.append(payload[:b])
            self._lane_scores.append(
                payload.view(np.float64).reshape(b, k_)
            )
        self._replicas = [
            view(k_ * n, np.bool_).reshape(k_, n) for _ in range(2)
        ]
        self._total_bytes = off

    # -- construction --------------------------------------------------------

    @staticmethod
    def segment_bytes(num_vertices: int, k: int, workers: int, batch: int
                      ) -> int:
        """Bytes the layout above needs for these dimensions."""
        lane = (_TRIPLE_FIELDS * batch + batch * k) * 8
        return num_vertices * 8 + 2 * k * 8 + workers * lane \
            + 2 * k * num_vertices

    @classmethod
    def create(
        cls,
        num_vertices: int,
        k: int,
        workers: int,
        batch: int,
        degrees: np.ndarray,
        replicas: np.ndarray,
        loads: np.ndarray,
    ) -> "SharedState":
        """Allocate a segment seeded with the superstep-0 snapshot.

        Both buffers start equal to the initial state, so the first
        :meth:`commit` finds a current staging buffer with no delta
        pending.
        """
        if workers < 1 or batch < 1:
            raise ConfigurationError(
                f"shared state needs workers/batch >= 1, got "
                f"{workers}/{batch}"
            )
        size = cls.segment_bytes(num_vertices, k, workers, batch)
        shm = _create_untracked(max(size, 1))
        try:
            state = cls(shm, num_vertices, k, workers, batch, owner=True)
            state._degrees[...] = degrees
            for index in range(2):
                state._loads[index][...] = loads
                state._replicas[index][...] = replicas
        except BaseException:
            # An interrupt mid-seed must not orphan a segment whose
            # name the caller never learned (see the leak gates).
            _close_quietly(shm)
            _unlink_quietly(shm)
            raise
        return state

    @classmethod
    def attach(
        cls, name: str, num_vertices: int, k: int, workers: int, batch: int
    ) -> "SharedState":
        """Map the coordinator's segment from a worker process."""
        shm = _attach_untracked(name)
        expected = cls.segment_bytes(num_vertices, k, workers, batch)
        if shm.size < expected:
            _close_quietly(shm)
            raise ConfigurationError(
                f"shared state segment {name} holds {shm.size} bytes; "
                f"{expected} expected for n={num_vertices} k={k} "
                f"workers={workers} batch={batch}"
            )
        return cls(shm, num_vertices, k, workers, batch, owner=False)

    # -- views ---------------------------------------------------------------

    @property
    def name(self) -> str:
        """Segment name workers pass to :meth:`attach`."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Size of the underlying segment in bytes."""
        return self._total_bytes

    @property
    def degrees(self) -> np.ndarray:
        """The exact-degree array (written once by the creator)."""
        return self._degrees

    def snapshot(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """``(replicas, loads)`` views of buffer ``index`` (0 or 1)."""
        return self._replicas[index], self._loads[index]

    # -- worker side ---------------------------------------------------------

    def write_batch(
        self,
        worker_id: int,
        eids: np.ndarray,
        us: np.ndarray,
        vs: np.ndarray,
        ps: np.ndarray | None = None,
        scores: np.ndarray | None = None,
    ) -> None:
        """Write one batch into worker ``worker_id``'s scratch lane.

        Exactly one of ``ps`` (fast path: chosen partitions) or
        ``scores`` (slow path: the full score matrix) must be given.
        Only the control frame's record count tells the coordinator how
        much of the lane is live.
        """
        count = eids.shape[0]
        b = self.batch
        triples = self._lane_triples[worker_id]
        triples[:count] = eids
        triples[b:b + count] = us
        triples[2 * b:2 * b + count] = vs
        if ps is not None:
            self._lane_parts[worker_id][:count] = ps
        else:
            self._lane_scores[worker_id][:count] = scores

    # -- coordinator side ----------------------------------------------------

    def read_batch(
        self, worker_id: int, count: int, slow: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views of worker ``worker_id``'s lane: ``(eids, us, vs, extra)``.

        ``extra`` is the chosen-partition vector (``slow=False``) or the
        ``count × k`` score matrix (``slow=True``).  Views stay valid
        until the worker's *next* superstep — i.e. until the commit
        frame is sent — so merge before committing.
        """
        b = self.batch
        triples = self._lane_triples[worker_id]
        eids = triples[:count]
        us = triples[b:b + count]
        vs = triples[2 * b:2 * b + count]
        if slow:
            return eids, us, vs, self._lane_scores[worker_id][:count]
        return eids, us, vs, self._lane_parts[worker_id][:count]

    def commit(
        self, us: np.ndarray, vs: np.ndarray, ps: np.ndarray
    ) -> int:
        """Fold one superstep's merged delta in; flip; return the new index.

        Applies the delta to the staging buffer — after first running
        :meth:`catch_up` if the previous delta is still pending there —
        and publishes it.  ``us``/``vs``/``ps`` are kept by reference
        until the catch-up: pass arrays that no worker lane backs (the
        driver passes freshly concatenated copies).
        """
        if self._pending is not None:
            self.catch_up()
        staging = 1 - self.published
        replicas, loads = self.snapshot(staging)
        apply_delta(replicas, loads, us, vs, ps)
        self._pending = (us, vs, ps)
        self.published = staging
        return staging

    def catch_up(self) -> None:
        """Replay the last committed delta into the unpublished buffer.

        After it both buffers are equal.  Workers read only the
        published buffer, so the driver calls this after releasing
        them, while they score the next superstep.  A no-op when no
        delta is pending.
        """
        if self._pending is None:
            return
        replicas, loads = self.snapshot(1 - self.published)
        apply_delta(replicas, loads, *self._pending)
        self._pending = None

    # -- lifetime ------------------------------------------------------------

    def close(self) -> None:
        """Drop every view and unmap the segment (both sides)."""
        self._degrees = None
        self._loads = None
        self._replicas = None
        self._lane_triples = None
        self._lane_parts = None
        self._lane_scores = None
        self._pending = None
        _close_quietly(self._shm)

    def unlink(self) -> None:
        """Remove the segment name (creator only; idempotent)."""
        if self._owner:
            _unlink_quietly(self._shm)
