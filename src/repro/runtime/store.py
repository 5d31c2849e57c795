"""Content-addressed artifact store for runtime results.

A cache entry is keyed by ``sha256(spec.content_hash() + input
digest)``: the spec hash covers every result-determining knob
(:meth:`~repro.runtime.spec.JobSpec.content_hash`), the input digest
covers the actual edge bytes (:func:`input_digest` — the file, every
shard a manifest references, an in-memory Graph's arrays, or a
dataset name with its scale environment).  Re-running an identical
job therefore loads the saved assignment bit for bit, with zero
partitioning stages executed; changing any semantic knob *or* the
input content misses.

Entries are directories under the store root (sharded by the key's
first two hex chars, like git objects): ``parts.npy`` + ``loads.npy``
hold the assignment, ``meta.json`` the canonical spec, metrics,
phase breakdown, and worker report.  Writes go to a
``.staging-<writer pid>_<random>`` directory first and land via
:func:`os.replace`, so concurrent or interrupted runs never expose a
half-written entry.  The next ``put`` into a bucket removes the staging
directories of writers that died mid-``put``
(:func:`~repro.parallel.shm.owner_is_dead`), which assumes one host,
one pid namespace, per store root.

Hashing a ``path`` input reads every byte of it, so the digest of each
one is memoized per process, keyed by its absolute path, next to the
stat signature ``(path, st_dev, st_ino, st_size, st_mtime_ns,
st_ctime_ns)`` of every file it hashed: the file and, for a shard
manifest, each shard in hashing order.  A lookup re-stats those files
and returns the stored digest, opening no file, only when every tuple
still matches.  A digest is recorded only when the files' signatures
are equal before and after hashing, and every file's mtime and ctime
is at least :data:`RACY_WINDOW_NS` older than the moment hashing
began.  A file changed more recently is *racy*, as git calls such
index entries: a write landing in the same timestamp tick would leave
its stat unchanged, so it is re-hashed on every call.  No unprivileged
call can set ctime, so any later edit, :func:`os.replace` or
:func:`os.utime` changes the signature.  The one assumption is that
file timestamps come from this host's clock.  The memo holds at most
:data:`MEMO_CAPACITY` inputs and evicts the least recently used.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.hep import HepPhaseBreakdown
from repro.errors import GraphFormatError, ReproError
from repro.parallel.shm import owner_is_dead
from repro.runtime.result import PartitionResult
from repro.runtime.spec import JobSpec

__all__ = [
    "ArtifactStore", "MissingEntryError", "UnreadableInputError",
    "input_digest", "require_input_digest",
]

_LOG = logging.getLogger("repro.runtime.store")

#: bumped when the on-disk entry layout changes (old entries then miss)
STORE_FORMAT = 1

#: subdirectory of the store root that corrupt entries are moved into
QUARANTINE_DIR = "quarantine"

#: a file whose mtime or ctime is less than this before hashing began
#: is racy and its digest is not memoized; 2 s covers filesystems with
#: 1 s and 2 s timestamps
RACY_WINDOW_NS = 2_000_000_000

#: most ``path`` inputs whose digests the memo holds
MEMO_CAPACITY = 256

_HASH_CHUNK = 1 << 20


class UnreadableInputError(ReproError):
    """A ``path`` input is not a readable edge file or shard manifest."""


class MissingEntryError(ReproError):
    """No valid stored entry answers a key (none, another layout, torn)."""


def _update_with_file(digest, path: str) -> None:
    """Fold a file's bytes into ``digest`` in bounded chunks."""
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_HASH_CHUNK)
            if not block:
                break
            digest.update(block)


def _signature(files) -> tuple:
    """The stat identity of each of ``files``, in order."""
    signature = []
    for name in files:
        st = os.stat(name)
        signature.append((
            name, st.st_dev, st.st_ino, st.st_size,
            st.st_mtime_ns, st.st_ctime_ns,
        ))
    return tuple(signature)


class _DigestMemo:
    """Digests of ``path`` inputs, valid while their stat signatures hold."""

    def __init__(self, capacity: int) -> None:
        """Hold at most ``capacity`` inputs."""
        self.capacity = capacity
        self._entries: "OrderedDict[str, tuple[tuple, str]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of inputs memoized."""
        with self._lock:
            return len(self._entries)

    def get(self, name: str) -> str | None:
        """The digest recorded for ``name`` if no file it hashed changed."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None:
                self._entries.move_to_end(name)
        if entry is None:
            return None
        signature, digest = entry
        try:
            if _signature(row[0] for row in signature) != signature:
                return None
        except OSError:
            return None
        return digest

    def put(self, name: str, signature: tuple, digest: str) -> None:
        """Record ``digest`` for ``name`` while ``signature`` holds."""
        with self._lock:
            self._entries[name] = (signature, digest)
            self._entries.move_to_end(name)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


_MEMO = _DigestMemo(MEMO_CAPACITY)


def _input_files(name: str) -> list[str]:
    """The files a ``path`` input's digest covers, in hashing order."""
    from repro.stream.shard import is_manifest_path, read_shard_manifest

    if not os.path.exists(name):
        raise UnreadableInputError(f"{name}: no such edge file or manifest")
    if os.path.isdir(name):
        raise UnreadableInputError(
            f"{name}: is a directory, not an edge file or manifest"
        )
    if not is_manifest_path(name):
        return [name]
    try:
        manifest = read_shard_manifest(name)
    except GraphFormatError as exc:
        raise UnreadableInputError(str(exc)) from exc
    return [name, *(str(shard) for shard in manifest.shard_paths)]


def _path_digest(path) -> str:
    """Digest of an edge file or shard manifest, memoized (module doc)."""
    name = str(Path(path).absolute())
    digest = _MEMO.get(name)
    if digest is not None:
        return digest
    began = time.time_ns()
    try:
        files = _input_files(name)
        before = _signature(files)
        hasher = hashlib.sha256(b"path:")
        for file in files:
            _update_with_file(hasher, file)
        after = _signature(files)
    except OSError as exc:
        raise UnreadableInputError(f"{name}: {exc}") from exc
    digest = hasher.hexdigest()
    settled = began - RACY_WINDOW_NS
    if before == after and all(
        row[4] <= settled and row[5] <= settled for row in after
    ):
        _MEMO.put(name, after, digest)
    return digest


def require_input_digest(spec: JobSpec, source) -> str:
    """:func:`input_digest`, raising where that returns ``None``.

    Raises :class:`UnreadableInputError`, naming the path and the
    reason, for a path that is missing, a directory, an unreadable
    file, or a shard manifest that does not parse or names a missing
    or mis-sized shard, and for opaque sources (already-open streams),
    which are not content-addressable.
    """
    kind = spec.input.kind
    if kind == "path":
        return _path_digest(spec.input.path)
    digest = hashlib.sha256()
    if kind == "graph":
        digest.update(b"graph:")
        digest.update(str(source.num_vertices).encode("utf-8"))
        digest.update(np.ascontiguousarray(source.edges).tobytes())
        return digest.hexdigest()
    if kind == "dataset":
        scale = os.environ.get("REPRO_SCALE", "")
        digest.update(
            f"dataset:{spec.input.path}:scale={scale}".encode("utf-8")
        )
        return digest.hexdigest()
    raise UnreadableInputError(f"{kind} inputs are not content-addressable")


def input_digest(spec: JobSpec, source) -> str | None:
    """Sha256 of the job's input *content*, or ``None`` if unhashable.

    ``path`` inputs digest the file — and, for shard manifests, every
    shard file it references, so editing any shard invalidates the
    entry.  Their digests are memoized per process on the stat
    identity of every file hashed (see the module docstring): a repeat
    call on unchanged files returns without opening them.  A digest is
    recorded only when no file changed during hashing and every file's
    mtime and ctime is at least :data:`RACY_WINDOW_NS` (2 s) older than
    the start of hashing, so a file written more recently is hashed
    again on every call.  File timestamps are assumed to come from this
    host's clock.  The memo holds at most :data:`MEMO_CAPACITY` inputs.
    ``dataset`` inputs digest the name plus the ``REPRO_SCALE``
    environment (the generators are deterministic given those).
    ``graph`` inputs digest the edge array bytes.

    ``None`` means the input has no content address: an opaque source
    (an already-open stream), or a path that is not a readable edge
    file or shard manifest (missing, a directory, or a manifest that
    does not parse or names a missing or mis-sized shard);
    :func:`require_input_digest` says why.
    """
    try:
        return require_input_digest(spec, source)
    except UnreadableInputError:
        return None


def _report_to_dict(report) -> dict | None:
    """Serialize a MultiWorkerReport (timings included) to plain JSON."""
    if report is None:
        return None
    timings = report.timings
    return {
        "workers": report.workers,
        "batch": report.batch,
        "supersteps": report.supersteps,
        "edges_streamed": report.edges_streamed,
        "fast_supersteps": report.fast_supersteps,
        "slow_supersteps": report.slow_supersteps,
        "timings": None if timings is None else {
            "busy_s": list(timings.busy_s),
            "wait_s": list(timings.wait_s),
            "send_s": list(timings.send_s),
            "coordinator_recv_s": timings.coordinator_recv_s,
            "coordinator_merge_s": timings.coordinator_merge_s,
            "coordinator_send_s": timings.coordinator_send_s,
        },
    }


def _report_from_dict(data: dict | None):
    """Rebuild a MultiWorkerReport from its JSON form."""
    if data is None:
        return None
    from repro.stream.workers import MultiWorkerReport, WorkerTimings

    timings = data.get("timings")
    return MultiWorkerReport(
        workers=data["workers"],
        batch=data["batch"],
        supersteps=data["supersteps"],
        edges_streamed=data["edges_streamed"],
        fast_supersteps=data["fast_supersteps"],
        slow_supersteps=data["slow_supersteps"],
        timings=None if timings is None else WorkerTimings(
            busy_s=tuple(timings["busy_s"]),
            wait_s=tuple(timings["wait_s"]),
            send_s=tuple(timings["send_s"]),
            coordinator_recv_s=timings["coordinator_recv_s"],
            coordinator_merge_s=timings["coordinator_merge_s"],
            coordinator_send_s=timings["coordinator_send_s"],
        ),
    )


def _breakdown_to_dict(breakdown) -> dict | None:
    """Serialize a HepPhaseBreakdown to plain JSON."""
    if breakdown is None:
        return None
    return {
        "num_edges": breakdown.num_edges,
        "num_h2h_edges": breakdown.num_h2h_edges,
        "num_inmemory_edges": breakdown.num_inmemory_edges,
        "cleanup_removed_fraction": breakdown.cleanup_removed_fraction,
        "spilled_edges": breakdown.spilled_edges,
    }


def _breakdown_from_dict(data: dict | None) -> HepPhaseBreakdown | None:
    """Rebuild a HepPhaseBreakdown from its JSON form."""
    if data is None:
        return None
    return HepPhaseBreakdown(**data)


class ArtifactStore:
    """Directory-backed, content-addressed cache of partition results.

    ``hits``/``misses`` count lookups; the correctness tests assert a
    second identical run recomputes nothing (its result's
    ``stages_executed`` stays empty and ``hits`` goes to 1).

    The store is safe for concurrent writers: entries land via a single
    atomic directory rename, a concurrently-created identical entry is
    treated as a benign win (content addressing makes both writers'
    payloads byte-equal), and a torn entry left by a crashed writer is
    quarantined on first read instead of raised.
    """

    def __init__(self, root: "str | os.PathLike") -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def cache_key(self, spec: JobSpec, digest: str) -> str:
        """Combine the spec hash and the input digest into the entry key."""
        payload = f"{spec.content_hash()}:{digest}:fmt{STORE_FORMAT}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _entry_dir(self, key: str) -> Path:
        """Directory an entry with ``key`` lives in (git-style sharding)."""
        return self.root / key[:2] / key

    def entry_path(self, key: str) -> Path:
        """Public path of the entry dir for ``key`` (read-side consumers)."""
        return self._entry_dir(key)

    def _quarantine(self, entry: Path, key: str, exc: Exception) -> None:
        """Move a torn entry dir aside so it never shadows a clean write.

        A crashed writer can only leave a bad entry if the rename in
        :meth:`put` landed a directory whose files were later truncated
        (e.g. by a dying filesystem); rather than re-reading the same
        garbage on every lookup, the entry moves to
        ``root/quarantine/<key>-<n>`` for post-mortem inspection and the
        key becomes writable again.
        """
        dest_root = self.root / QUARANTINE_DIR
        try:
            dest_root.mkdir(parents=True, exist_ok=True)
            suffix = 0
            while True:
                dest = dest_root / f"{key}-{suffix}"
                if not dest.exists():
                    break
                suffix += 1
            os.replace(entry, dest)
        except OSError:
            # Another process quarantined (or repaired) it first; either
            # way the entry is no longer ours to move.
            return
        self.quarantined += 1
        _LOG.warning(
            "quarantined corrupt cache entry %s -> %s (%s: %s)",
            entry, dest, type(exc).__name__, exc,
        )

    def read_entry(
        self, key: str, spec: JobSpec | None = None
    ) -> tuple[dict, PartitionResult]:
        """The stored ``meta.json`` dict and result of ``key``.

        The one reader of an entry: :meth:`get` and the serve layer's
        artifact cache both call it.  The result carries ``spec`` and
        ``cache_hit=True``.  Raises :class:`MissingEntryError`, naming
        the reason, when no valid entry answers: none is stored, it was
        written by another :data:`STORE_FORMAT` (a plain miss, left in
        place), or it is torn (a half-written ``meta.json`` or one that
        is not a JSON object, a truncated ``.npy``, missing keys).  A
        torn entry is logged and quarantined under ``root/quarantine/``
        first, so the next read finds no entry and the key is writable
        again.
        """
        entry = self._entry_dir(key)
        meta_path = entry / "meta.json"
        if not meta_path.exists():
            raise MissingEntryError(f"no stored entry for key {key}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if meta.get("format") != STORE_FORMAT:
                raise MissingEntryError(
                    f"stored entry {key} has store format "
                    f"{meta.get('format')!r}, not {STORE_FORMAT}"
                )
            result = PartitionResult(
                spec=spec,
                algorithm=meta["algorithm"],
                parts=np.load(entry / "parts.npy"),
                k=meta["k"],
                num_vertices=meta["num_vertices"],
                num_edges=meta["num_edges"],
                chunk_size=meta["chunk_size"],
                loads=np.load(entry / "loads.npy"),
                replication_factor=meta["replication_factor"],
                edge_balance=meta["edge_balance"],
                runtime_s=0.0,
                passes=meta["passes"],
                tau=meta["tau"],
                breakdown=_breakdown_from_dict(meta["breakdown"]),
                spill_bytes=meta["spill_bytes"],
                projected_memory_bytes=meta["projected_memory_bytes"],
                report=_report_from_dict(meta["report"]),
                job_hash=meta["job_hash"],
                cache_hit=True,
                stages_executed=(),
            )
        except (
            OSError, ValueError, KeyError, EOFError, TypeError, AttributeError,
        ) as exc:
            self._quarantine(entry, key, exc)
            raise MissingEntryError(
                f"stored entry {key} was torn ({type(exc).__name__}: "
                f"{exc}) and is quarantined"
            ) from exc
        return meta, result

    def get(self, key: str, spec: JobSpec) -> PartitionResult | None:
        """Load the cached result for ``key``, or ``None`` on a miss.

        Every :class:`MissingEntryError` of :meth:`read_entry` — no
        entry, another layout, a torn entry (quarantined) — counts as
        a miss and is never raised.
        """
        try:
            _, result = self.read_entry(key, spec)
        except MissingEntryError:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: PartitionResult, digest: str) -> Path:
        """Persist ``result`` under ``key`` (atomic directory rename).

        Safe under concurrent writers racing on the same key: both
        stage into private temp directories, and whichever
        ``os.replace`` lands first wins.  Because the key is
        content-addressed the loser's payload is byte-identical, so
        losing the rename is a benign outcome — the losing staging dir
        is cleaned up and the surviving entry returned.  Staging
        directories that killed writers left in the bucket go first.
        """
        entry = self._entry_dir(key)
        if (entry / "meta.json").exists():
            # Entry already present (an earlier run, or a concurrent
            # writer that finished before we staged anything).
            return entry
        entry.parent.mkdir(parents=True, exist_ok=True)
        for stale in entry.parent.glob(".staging-*"):
            if owner_is_dead(stale.name, ".staging-"):
                shutil.rmtree(stale, ignore_errors=True)
        staging = Path(tempfile.mkdtemp(
            prefix=f".staging-{os.getpid()}_", dir=entry.parent
        ))
        try:
            np.save(staging / "parts.npy", result.parts)
            np.save(staging / "loads.npy", result.loads)
            meta = {
                "format": STORE_FORMAT,
                "job_hash": result.job_hash,
                "input_digest": digest,
                "spec": result.spec.to_dict(),
                "algorithm": result.algorithm,
                "k": result.k,
                "num_vertices": result.num_vertices,
                "num_edges": result.num_edges,
                "chunk_size": result.chunk_size,
                "passes": result.passes,
                "tau": result.tau,
                "spill_bytes": result.spill_bytes,
                "projected_memory_bytes": result.projected_memory_bytes,
                "replication_factor": result.replication_factor,
                "edge_balance": result.edge_balance,
                "runtime_s": result.runtime_s,
                "breakdown": _breakdown_to_dict(result.breakdown),
                "report": _report_to_dict(result.report),
            }
            (staging / "meta.json").write_text(
                json.dumps(meta, indent=2, sort_keys=True),
                encoding="utf-8",
            )
            try:
                os.replace(staging, entry)
            except OSError as exc:
                # os.replace only renames onto an *empty* directory, so
                # a concurrent writer landing first makes this raise
                # (ENOTEMPTY/EEXIST).  Same key, same content: their
                # entry is as good as ours — benign win for them.
                if not (entry / "meta.json").exists():
                    raise exc
        finally:
            if staging.exists() and staging != entry:
                shutil.rmtree(staging, ignore_errors=True)
        return entry
