"""Sharded edge files: a manifest plus N shard files, read in order.

The ROADMAP's next storage step after the single-file chunked readers:
an edge list split into ``N`` contiguous *shards* described by a small
JSON **manifest**.  A shard is a :mod:`repro.stream.records` file of
:data:`~repro.stream.records.EDGE_PAIRS`: raw little-endian uint32
pairs — each shard is itself a valid binary edge list — or, with
``compression="zlib"``, framed with one zlib frame per appended block.

Three public pieces:

* :class:`ShardWriter` / :func:`write_sharded_edges` — split any edge
  stream into shards + manifest with bounded memory,
* :class:`EdgeSegment` / :func:`iter_segments` — the one segment
  reader: decode and validate a run of shards (or worker spill
  segments) and re-slice it into fixed-size blocks.  The worker
  processes (:mod:`repro.stream.workers`) read their shard assignment
  through it,
* :class:`ShardedEdgeSource` — reads the shards one after another
  through :func:`iter_segments`, re-sliced to ``chunk_size``, so the
  emitted chunk/eid sequence is *bit-identical* to reading one
  concatenated file.

Because shards partition the canonical edge stream contiguously, edge
ids are still the global stream positions — the out-of-core drivers
consume a manifest exactly like a single file, and the equivalence
properties in ``tests/test_stream_shard.py`` pin bit-identity.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, GraphFormatError
from repro.stream.reader import (
    DEFAULT_CHUNK_SIZE,
    EdgeChunk,
    EdgeChunkSource,
    _check_chunk_size,
    _validate_chunk,
)
from repro.stream.records import (
    CODECS,
    EDGE_PAIRS,
    SPILL_TRIPLES,
    RecordWriter,
    check_codec,
    read_records,
)

__all__ = [
    "ShardManifest",
    "ShardWriter",
    "ShardedEdgeSource",
    "EdgeSegment",
    "iter_segments",
    "manifest_segments",
    "write_sharded_edges",
    "read_shard_manifest",
    "is_manifest_path",
    "MANIFEST_SUFFIX",
    "SHARD_FORMAT",
    "SHARD_VERSION",
]

#: canonical manifest filename suffix (``open_edge_source`` keys on it)
MANIFEST_SUFFIX = ".manifest.json"

#: ``format`` field value identifying a sharded edge-file manifest
SHARD_FORMAT = "repro-sharded-edges"

#: manifest version this build writes
SHARD_VERSION = 1


@dataclass(frozen=True)
class ShardManifest:
    """Parsed description of one sharded edge file set.

    ``shard_paths`` are joined to the manifest's directory, so a
    manifest travels with its shards as one relocatable directory.
    Symlinks in them are left for the OS to follow, so a ``stat`` of a
    shard path sees the file a read of it opens.
    """

    path: Path
    num_edges: int
    num_vertices: int | None
    compression: str | None
    shard_paths: tuple[Path, ...]
    shard_edges: tuple[int, ...]

    @property
    def num_shards(self) -> int:
        """Number of shard files."""
        return len(self.shard_paths)

    def total_bytes(self) -> int:
        """Bytes on disk across the manifest and every shard file."""
        return self.path.stat().st_size + sum(
            p.stat().st_size for p in self.shard_paths
        )


def is_manifest_path(path: "str | os.PathLike") -> bool:
    """True when ``path`` names a shard manifest (by suffix)."""
    name = str(path)
    return name.endswith(MANIFEST_SUFFIX) or name.endswith(".json")


def read_shard_manifest(path: "str | os.PathLike") -> ShardManifest:
    """Load and validate a shard manifest written by :class:`ShardWriter`.

    Raises :class:`~repro.errors.GraphFormatError` on anything that is
    not a well-formed ``repro-sharded-edges`` manifest whose shard files
    all exist and whose per-shard edge counts sum to the declared total.
    An uncompressed shard must also hold exactly ``num_edges`` edge
    pairs: every reader (the sharded source and the worker processes)
    opens the manifest here, so a shard that grew or shrank fails the
    same way on every path.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise GraphFormatError(f"{path}: unreadable shard manifest: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != SHARD_FORMAT:
        found = data.get("format") if isinstance(data, dict) else None
        raise GraphFormatError(
            f"{path}: not a {SHARD_FORMAT!r} manifest (format={found!r})"
        )
    if data.get("version") != SHARD_VERSION:
        raise GraphFormatError(
            f"{path}: unsupported manifest version {data.get('version')!r} "
            f"(this build reads version {SHARD_VERSION})"
        )
    compression = data.get("compression")
    if compression is not None and compression not in CODECS:
        raise GraphFormatError(
            f"{path}: unknown shard compression {compression!r}; "
            f"available: {', '.join(CODECS)} (or null)"
        )
    shards = data.get("shards")
    if not isinstance(shards, list) or not shards:
        raise GraphFormatError(f"{path}: manifest lists no shards")
    shard_paths: list[Path] = []
    shard_edges: list[int] = []
    for i, entry in enumerate(shards):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("path"), str)
            or not isinstance(entry.get("num_edges"), int)
            or entry["num_edges"] < 0
        ):
            raise GraphFormatError(
                f"{path}: shard entry {i} must carry 'path' and a "
                f"non-negative 'num_edges', got {entry!r}"
            )
        shard = (path.parent / entry["path"]).absolute()
        if not shard.exists():
            raise GraphFormatError(f"{path}: missing shard file {shard}")
        expected = entry["num_edges"]
        expected_bytes = expected * EDGE_PAIRS.row_bytes
        if compression is None and shard.stat().st_size != expected_bytes:
            raise GraphFormatError(
                f"{shard}: shard holds {shard.stat().st_size} bytes, "
                f"expected {expected_bytes} ({expected} edges per manifest)"
            )
        shard_paths.append(shard)
        shard_edges.append(expected)
    num_edges = data.get("num_edges")
    if not isinstance(num_edges, int) or num_edges != sum(shard_edges):
        raise GraphFormatError(
            f"{path}: declared num_edges={num_edges!r} does not match the "
            f"shard total {sum(shard_edges)}"
        )
    num_vertices = data.get("num_vertices")
    if num_vertices is not None and (
        not isinstance(num_vertices, int) or num_vertices < 0
    ):
        raise GraphFormatError(
            f"{path}: num_vertices must be a non-negative integer or null"
        )
    return ShardManifest(
        path=path,
        num_edges=num_edges,
        num_vertices=num_vertices,
        compression=compression,
        shard_paths=tuple(shard_paths),
        shard_edges=tuple(shard_edges),
    )


def _manifest_stem(path: Path) -> tuple[Path, str]:
    """Normalize an output path to (manifest path, shard-name stem)."""
    name = path.name
    if name.endswith(MANIFEST_SUFFIX):
        stem = name[: -len(MANIFEST_SUFFIX)]
    elif name.endswith(".json"):
        stem = name[: -len(".json")]
    else:
        stem, path = name, path.with_name(name + MANIFEST_SUFFIX)
    return path, stem


class ShardWriter:
    """Split an incoming edge stream into N shard files plus a manifest.

    Parameters
    ----------
    out_path:
        Manifest location; ``.manifest.json`` is appended when missing.
        Shard files land next to it as ``<stem>.shard-<i>.bin``.
    num_edges:
        Total edges the stream will deliver (shard boundaries are fixed
        upfront so readers can compute global edge ids per shard).
    num_shards:
        Number of contiguous shards to produce.
    compression:
        ``None`` for flat ``<u4`` pairs, ``"zlib"`` for the framed
        variant (one frame per appended sub-block).
    num_vertices:
        Optional vertex-universe size recorded in the manifest, so a
        read-back preserves trailing isolated vertices exactly like the
        in-memory path.

    The writer is a context manager; :meth:`close` writes the manifest
    and returns the parsed :class:`ShardManifest`.  Appending more or
    fewer than ``num_edges`` edges is a :class:`GraphFormatError`.
    """

    def __init__(
        self,
        out_path: "str | os.PathLike",
        num_edges: int,
        num_shards: int,
        compression: str | None = None,
        num_vertices: int | None = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        if num_edges < 0:
            raise ConfigurationError(
                f"num_edges must be >= 0, got {num_edges}"
            )
        check_codec(compression, "shard compression")
        self.path, stem = _manifest_stem(Path(out_path))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.num_edges = int(num_edges)
        self.num_shards = int(num_shards)
        self.compression = compression
        self.num_vertices = num_vertices
        base, extra = divmod(self.num_edges, self.num_shards)
        self._targets = [
            base + (1 if i < extra else 0) for i in range(self.num_shards)
        ]
        self._names = [
            f"{stem}.shard-{i:04d}.bin" for i in range(self.num_shards)
        ]
        self._shard = 0
        self._in_shard = 0
        self._written = 0
        self._out: RecordWriter | None = None
        self._closed = False
        self._manifest: ShardManifest | None = None

    def _open_next(self) -> RecordWriter:
        """Open the current shard's record writer."""
        return RecordWriter(
            self.path.parent / self._names[self._shard], EDGE_PAIRS,
            self.compression,
        )

    def append(self, pairs: np.ndarray) -> int:
        """Append a block of ``(u, v)`` pairs, splitting across shards.

        Returns the number of edges appended.  Ids must fit the uint32
        shard payload; negatives or ids >= 2**32 raise
        :class:`GraphFormatError`.
        """
        if self._closed:
            raise ValueError("append() on a closed ShardWriter")
        pairs = np.ascontiguousarray(pairs).reshape(-1, 2)
        if pairs.shape[0] == 0:
            return 0
        if pairs.dtype.kind != "u" and int(pairs.min()) < 0:
            raise GraphFormatError(
                f"{self.path}: negative vertex id in shard payload"
            )
        if int(pairs.max()) >= 2**32:
            raise GraphFormatError(
                f"{self.path}: vertex ids exceed the uint32 shard format"
            )
        if self._written + pairs.shape[0] > self.num_edges:
            raise GraphFormatError(
                f"{self.path}: stream delivered more than the declared "
                f"{self.num_edges} edges"
            )
        offset = 0
        while offset < pairs.shape[0]:
            # Advance past exhausted shards (zero-target shards included)
            # so every shard file exists even when it holds no edges.
            while self._out is None or self._in_shard >= self._targets[self._shard]:
                if self._out is None:
                    self._out = self._open_next()
                    continue
                self._out.close()
                self._shard += 1
                self._in_shard = 0
                self._out = self._open_next()
            room = self._targets[self._shard] - self._in_shard
            block = pairs[offset : offset + room]
            self._out.append(block)
            self._in_shard += block.shape[0]
            offset += block.shape[0]
        self._written += pairs.shape[0]
        return pairs.shape[0]

    def close(self) -> ShardManifest:
        """Finish trailing empty shards, write the manifest, return it."""
        if self._closed:
            return self._manifest
        if self._written != self.num_edges:
            # Leave partial shard files behind for post-mortem, but fail.
            if self._out is not None:
                self._out.close()
            self._closed = True
            raise GraphFormatError(
                f"{self.path}: stream delivered {self._written} of the "
                f"declared {self.num_edges} edges"
            )
        if self._out is None:
            self._out = self._open_next()
        # Create any remaining (necessarily empty) shard files.
        while self._shard < self.num_shards - 1:
            self._out.close()
            self._shard += 1
            self._in_shard = 0
            self._out = self._open_next()
        self._out.close()
        self._out = None
        self._closed = True
        manifest = {
            "format": SHARD_FORMAT,
            "version": SHARD_VERSION,
            "num_edges": self.num_edges,
            "num_vertices": self.num_vertices,
            "compression": self.compression,
            "shards": [
                {"path": name, "num_edges": target}
                for name, target in zip(self._names, self._targets)
            ],
        }
        self.path.write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        self._manifest = read_shard_manifest(self.path)
        return self._manifest

    def abort(self) -> None:
        """Release shard handles after a failure; no manifest is written.

        Partial shard files are left behind for post-mortem, but without
        a manifest no reader will consume them.
        """
        if self._closed:
            return
        self._closed = True
        if self._out is not None:
            self._out.close()
            self._out = None

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def write_sharded_edges(
    source,
    out_path: "str | os.PathLike",
    num_shards: int = 4,
    compression: str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ShardManifest:
    """Export any edge source as a sharded edge-file set.

    ``source`` is anything :func:`~repro.stream.reader.open_edge_source`
    accepts.  When the source cannot report its edge count upfront, one
    extra counting sweep establishes it (shard boundaries are fixed
    before any shard byte is written).  Memory stays bounded by
    ``chunk_size`` edges throughout.
    """
    from repro.stream.reader import open_edge_source

    src = open_edge_source(source, chunk_size)
    total = src.num_edges
    if total is None:
        total = sum(chunk.num_edges for chunk in src)
    with ShardWriter(
        out_path,
        num_edges=total,
        num_shards=num_shards,
        compression=compression,
        num_vertices=src.num_vertices,
    ) as writer:
        for chunk in src:
            writer.append(chunk.pairs)
    return writer.close()


@dataclass(frozen=True)
class EdgeSegment:
    """One contiguous run of globally-identified edges on disk.

    ``kind`` names the record format (:mod:`repro.stream.records`) and
    ``compression`` its encoding:

    * ``"pairs"`` — ``count`` edge pairs from edge ``start_edge`` on
      (a whole shard, or a raw slice of a single flat edge file as a
      virtual shard); edge ids are ``eid_start + position``,
    * ``"spill"`` — ``(u, v, eid)`` spill triples (the per-worker h2h
      segments of :func:`~repro.stream.workers.
      split_spill_round_robin`); edge ids travel in the records and
      ``eid_start`` is unused.
    """

    path: str
    count: int
    eid_start: int = 0
    kind: str = EDGE_PAIRS.name
    start_edge: int = 0
    compression: str | None = None

    def describe(self) -> str:
        """Short human-readable form used in failure messages."""
        if self.start_edge:
            return (
                f"{self.path}[{self.start_edge}:"
                f"{self.start_edge + self.count}]"
            )
        return self.path


def manifest_segments(manifest: ShardManifest) -> list[EdgeSegment]:
    """One :class:`EdgeSegment` per shard, in manifest order."""
    segments = []
    eid_start = 0
    for path, count in zip(manifest.shard_paths, manifest.shard_edges):
        segments.append(
            EdgeSegment(
                path=str(path), count=count, eid_start=eid_start,
                compression=manifest.compression,
            )
        )
        eid_start += count
    return segments


def _iter_segment(
    segment: EdgeSegment, chunk_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the ``(pairs, eids)`` blocks of one segment, in order."""
    if segment.kind == SPILL_TRIPLES.name:
        for records in read_records(
            segment.path, SPILL_TRIPLES, segment.count, segment.compression,
            chunk_size=chunk_size,
        ):
            yield records[:, :2], records[:, 2]
    elif segment.kind == EDGE_PAIRS.name:
        eid = segment.eid_start
        for pairs in read_records(
            segment.path, EDGE_PAIRS, segment.count, segment.compression,
            segment.start_edge, chunk_size,
        ):
            _validate_chunk(pairs, segment.path)
            yield pairs, np.arange(eid, eid + pairs.shape[0], dtype=np.int64)
            eid += pairs.shape[0]
    else:
        raise ConfigurationError(f"unknown segment kind {segment.kind!r}")


def iter_segments(
    segments: Sequence[EdgeSegment],
    size: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Read ``segments`` in order, re-sliced into ``size``-edge blocks.

    Each segment is decoded in blocks of at most ``chunk_size`` edges;
    every emitted ``(pairs, eids)`` pair holds exactly ``size`` edges
    (the final one may be short) and may span segment boundaries.
    ``pairs`` is ``(c, 2)`` int64, ``eids`` int64.
    """
    pairs_buf: list[np.ndarray] = []
    eids_buf: list[np.ndarray] = []
    have = 0

    def _take(count: int) -> tuple[np.ndarray, np.ndarray]:
        nonlocal have
        taken_p: list[np.ndarray] = []
        taken_e: list[np.ndarray] = []
        need = count
        while need:
            head_p, head_e = pairs_buf[0], eids_buf[0]
            if head_p.shape[0] <= need:
                taken_p.append(head_p)
                taken_e.append(head_e)
                pairs_buf.pop(0)
                eids_buf.pop(0)
                need -= head_p.shape[0]
            else:
                taken_p.append(head_p[:need])
                taken_e.append(head_e[:need])
                pairs_buf[0] = head_p[need:]
                eids_buf[0] = head_e[need:]
                need = 0
        have -= count
        pairs = taken_p[0] if len(taken_p) == 1 else np.vstack(taken_p)
        eids = taken_e[0] if len(taken_e) == 1 else np.concatenate(taken_e)
        return pairs, eids

    for segment in segments:
        for pairs, eids in _iter_segment(segment, chunk_size):
            if pairs.shape[0] == 0:
                continue
            pairs_buf.append(pairs)
            eids_buf.append(eids)
            have += pairs.shape[0]
            while have >= size:
                yield _take(size)
    if have:
        yield _take(have)


class ShardedEdgeSource(EdgeChunkSource):
    """Chunked reader over a sharded edge-file set, one shard at a time.

    The shards are read in manifest order through :func:`iter_segments`
    (the segment reader the worker processes use) and re-sliced to
    global ``chunk_size`` boundaries, so the emitted chunk/eid sequence
    is bit-identical to a single-file
    :class:`~repro.stream.reader.BinaryFileEdgeSource` read of the
    concatenated shards.  Restartable: every ``__iter__`` call starts
    again at the first shard.
    """

    def __init__(
        self,
        manifest: "str | os.PathLike | ShardManifest",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if not isinstance(manifest, ShardManifest):
            manifest = read_shard_manifest(manifest)
        self.manifest = manifest
        self.chunk_size = _check_chunk_size(chunk_size)

    def __iter__(self) -> Iterator[EdgeChunk]:
        segments = manifest_segments(self.manifest)
        for pairs, eids in iter_segments(
            segments, self.chunk_size, self.chunk_size
        ):
            yield EdgeChunk(pairs=pairs, eids=eids)

    @property
    def num_edges(self) -> int:
        """Total edge count declared by the manifest."""
        return self.manifest.num_edges

    @property
    def num_vertices(self) -> int | None:
        """Vertex universe recorded at export time (``None`` if absent)."""
        return self.manifest.num_vertices

    def describe(self) -> str:
        """Human-readable one-line description of the source."""
        codec = self.manifest.compression or "raw"
        return (
            f"sharded {self.manifest.path} "
            f"({self.manifest.num_shards} shards, {codec})"
        )
