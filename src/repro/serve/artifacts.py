"""Attached artifacts: interactive lookups over stored assignments.

A completed job's assignment lives in the
:class:`~repro.runtime.store.ArtifactStore` as ``parts.npy`` +
``loads.npy`` + ``meta.json``.  Point lookups (``edge → part``,
``vertex → parts``) and quality summaries should answer in
microseconds, not re-open the store per request — so the service keeps
a small LRU (:class:`ArtifactCache`) of :class:`AttachedArtifact`
objects: the parts array mapped once, the stored quality summary
parsed once, and a bool ``k × n`` vertex→parts cover built lazily on
the first vertex lookup by streaming the input a single time through
the shared cover kernel (:func:`~repro.partition.base.mark_cover`).

Anything that re-reads the input first checks that it still holds the
edges the result was computed from: the stored ``input_digest`` must
equal the digest of the input now, the same
:func:`~repro.runtime.store.input_digest` the store is keyed with.  An
edited, moved or deleted input raises :class:`StaleInputError`, which
the service answers with 409.  So does an entry the store no longer
holds intact (:class:`~repro.runtime.store.MissingEntryError`): the
service then marks the job failed, so a resubmit recomputes it.

Everything here is synchronous and thread-safe-by-construction (reads
of immutable arrays); the handlers run the blocking attach/build steps
on the event loop's default executor.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.partition.base import mark_cover
from repro.runtime.spec import InputSpec, JobSpec
from repro.runtime.store import ArtifactStore, input_digest

__all__ = ["ArtifactCache", "AttachedArtifact", "StaleInputError"]


class StaleInputError(ReproError):
    """The stored input no longer holds the edges a result came from."""


class AttachedArtifact:
    """One stored assignment, loaded for point lookups."""

    def __init__(self, key: str, meta: dict[str, Any],
                 parts: np.ndarray, loads: np.ndarray) -> None:
        """Wrap the loaded entry files; cover building is deferred."""
        self.key = key
        self.meta = meta
        self.parts = parts
        self.loads = loads
        self.k = int(meta["k"])
        self.num_vertices = int(meta["num_vertices"])
        self.num_edges = int(meta["num_edges"])
        self._cover: np.ndarray | None = None
        self._cover_lock = threading.Lock()

    def edge_part(self, eid: int) -> int:
        """Partition of edge ``eid`` (``-1`` = unassigned)."""
        if not 0 <= eid < len(self.parts):
            raise ConfigurationError(
                f"edge id {eid} out of range [0, {len(self.parts)})"
            )
        return int(self.parts[eid])

    def quality(self) -> dict[str, Any]:
        """The stored (stream-computed) quality summary."""
        return {
            "k": self.k,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "replication_factor": self.meta["replication_factor"],
            "edge_balance": self.meta["edge_balance"],
            "loads": [int(x) for x in self.loads],
            "tau": self.meta.get("tau"),
            "algorithm": self.meta.get("algorithm"),
        }

    def input_path(self) -> str:
        """The stored input's path, once its content is checked unchanged.

        Raises :class:`StaleInputError` when the entry names no input
        path, or when the input is gone or its digest differs from the
        one the entry was stored under.
        """
        spec = self.meta["spec"]
        stored = spec["input"]
        path = stored["path"]
        if not path:
            raise StaleInputError(
                "stored entry names no input path; re-reading the input "
                "needs the original edge source"
            )
        job = JobSpec(algo=spec["algo"], k=self.k, input=InputSpec(**stored))
        if input_digest(job, path) != self.meta["input_digest"]:
            raise StaleInputError(
                f"{path}: the input no longer holds the edges this result "
                "was computed from (edited, moved or deleted); resubmit "
                "the job"
            )
        return path

    def _build_cover(self) -> np.ndarray:
        """Stream the checked input once into a bool ``k × n`` cover."""
        from repro.stream.reader import open_edge_source

        source = open_edge_source(self.input_path(), self.meta["chunk_size"])
        cover = np.zeros((self.k, self.num_vertices), dtype=bool)
        for chunk in source:
            mark_cover(cover, self.parts[chunk.eids], chunk.pairs)
        return cover

    def vertex_parts(self, vertex: int) -> list[int]:
        """Partitions whose edge set touches ``vertex`` (its replicas)."""
        if not 0 <= vertex < self.num_vertices:
            raise ConfigurationError(
                f"vertex {vertex} out of range [0, {self.num_vertices})"
            )
        with self._cover_lock:
            if self._cover is None:
                self._cover = self._build_cover()
        return [int(p) for p in np.flatnonzero(self._cover[:, vertex])]


class ArtifactCache:
    """LRU of :class:`AttachedArtifact` keyed by store cache key."""

    def __init__(self, store: ArtifactStore, capacity: int = 4) -> None:
        """Bind to ``store``; hold at most ``capacity`` attachments."""
        if capacity < 1:
            raise ConfigurationError(
                f"artifact cache capacity must be >= 1, got {capacity}"
            )
        self.store = store
        self.capacity = capacity
        self._entries: "OrderedDict[str, AttachedArtifact]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of artifacts currently attached."""
        with self._lock:
            return len(self._entries)

    def attach(self, key: str) -> AttachedArtifact:
        """Return the attached artifact for ``key``, loading on miss.

        Raises :class:`~repro.runtime.store.MissingEntryError` when the
        store holds no valid entry for ``key``; the store's one reader
        quarantines a torn entry first.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                return cached
        meta, result = self.store.read_entry(key)
        artifact = AttachedArtifact(key, meta, result.parts, result.loads)
        with self._lock:
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return artifact
