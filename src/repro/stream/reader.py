"""Chunked edge sources: bounded-memory iteration over edge streams.

Every source yields :class:`EdgeChunk` blocks of at most ``chunk_size``
edges and can be iterated multiple times (the out-of-core pipeline makes
one counting pass and one splitting pass).  Edge ids are the stream
positions, which for canonical input match the canonical ids a full
in-memory :class:`~repro.graph.edgelist.Graph` would assign — the basis
of the out-of-core ≡ in-memory equivalence property.

File sources assume *canonical* input (no self-loops, no duplicate
undirected edges) — exactly what :func:`repro.graph.edgelist.
write_text_edgelist` / ``write_binary_edgelist`` and the CLI's
``datasets --export`` produce.  Self-loops are detected per chunk and
rejected; global duplicate detection would require unbounded state and
is deliberately not attempted.

Chunk order is pluggable:

* in-memory sources accept every :data:`repro.graph.ordering.ORDERINGS`
  strategy (the full permutation is computed via ``edge_order``),
* binary file sources additionally support ``"shuffled"`` — a seeded
  permutation of *chunk* read order plus a within-chunk shuffle, which
  approximates a random stream order with O(chunk) memory,
* text file sources are sequential-only (``"natural"``), and so are
  shard manifests.

:func:`check_order` holds that rule, for the sources and for
:func:`~repro.runtime.api.validate_spec` alike.
"""

from __future__ import annotations

import abc
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError, GraphFormatError
from repro.graph.edgelist import Graph
from repro.graph.ordering import ORDERINGS, edge_order
from repro.stream.records import DEFAULT_CHUNK_SIZE, EDGE_PAIRS, read_records

__all__ = [
    "EdgeChunk",
    "EdgeChunkSource",
    "InMemoryEdgeSource",
    "BinaryFileEdgeSource",
    "TextFileEdgeSource",
    "check_order",
    "open_edge_source",
    "path_format",
    "sniff_edge_format",
    "require_edge_format",
    "DEFAULT_CHUNK_SIZE",
]

#: suffixes that declare the flat binary uint32 pair format
BINARY_SUFFIXES = (".bin", ".edges", ".bel")


@dataclass(frozen=True)
class EdgeChunk:
    """One bounded block of an edge stream."""

    pairs: np.ndarray  # (c, 2) int64 oriented endpoints
    eids: np.ndarray   # (c,) int64 canonical edge ids

    @property
    def num_edges(self) -> int:
        """Number of edges in this chunk."""
        return int(self.pairs.shape[0])


class EdgeChunkSource(abc.ABC):
    """Restartable iterable of :class:`EdgeChunk` blocks."""

    chunk_size: int

    @abc.abstractmethod
    def __iter__(self) -> Iterator[EdgeChunk]:
        """Yield the stream from the beginning (restartable)."""

    @property
    def num_edges(self) -> int | None:
        """Total edge count if knowable without a pass, else ``None``."""
        return None

    @property
    def num_vertices(self) -> int | None:
        """Vertex-universe size if known upfront, else ``None``.

        File sources return ``None`` (the counting pass derives
        ``max id + 1``, matching what ``read_*_edgelist`` would assign);
        in-memory sources report the graph's universe so trailing
        isolated vertices keep the same mean degree as the in-memory
        path.
        """
        return None

    def describe(self) -> str:
        """Human-readable one-line description of the source."""
        return type(self).__name__


def _check_chunk_size(chunk_size: int) -> int:
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    return int(chunk_size)


def check_order(source_format: str, order: str) -> None:
    """Raise unless a ``source_format`` source can stream in ``order``.

    ``"memory"`` (a loaded Graph or a dataset) takes every
    :data:`~repro.graph.ordering.ORDERINGS` strategy, ``"binary"``
    ``"natural"`` or ``"shuffled"``, and ``"manifest"`` and ``"text"``
    only ``"natural"``.  The sources and
    :func:`~repro.runtime.api.validate_spec` both call this, so a job
    is refused before its input is hashed with the message the open
    would give.
    """
    if source_format == "memory":
        if order not in ORDERINGS:
            raise ConfigurationError(
                f"unknown ordering {order!r}; available: {', '.join(ORDERINGS)}"
            )
    elif source_format == "binary":
        if order not in ("natural", "shuffled"):
            raise ConfigurationError(
                f"binary file sources support 'natural' or 'shuffled' order, "
                f"got {order!r}"
            )
    elif order != "natural":
        kind = "sharded" if source_format == "manifest" else "text file"
        raise ConfigurationError(
            f"{kind} sources are sequential-only (order='natural')"
        )


def path_format(path: "str | os.PathLike") -> str:
    """``"manifest"``, ``"binary"`` or ``"text"``, by the suffix alone."""
    from repro.stream.shard import is_manifest_path

    if is_manifest_path(path):
        return "manifest"
    return "binary" if Path(path).suffix in BINARY_SUFFIXES else "text"


class InMemoryEdgeSource(EdgeChunkSource):
    """Chunked view of an already-loaded :class:`Graph`.

    ``order`` is any :data:`~repro.graph.ordering.ORDERINGS` strategy;
    the permutation is realized through :func:`~repro.graph.ordering.
    edge_order`, so "degree-aware" chunk orders come for free.
    """

    def __init__(
        self,
        graph: Graph,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        order: str = "natural",
        seed: int = 0,
    ) -> None:
        check_order("memory", order)
        self.graph = graph
        self.chunk_size = _check_chunk_size(chunk_size)
        self.order = order
        self.seed = seed
        self._perm = edge_order(graph, order, seed=seed)

    def __iter__(self) -> Iterator[EdgeChunk]:
        edges = self.graph.edges
        perm = self._perm
        for start in range(0, perm.size, self.chunk_size):
            ids = perm[start : start + self.chunk_size]
            yield EdgeChunk(pairs=edges[ids], eids=ids)

    @property
    def num_edges(self) -> int:
        """Edge count of the wrapped graph."""
        return self.graph.num_edges

    @property
    def num_vertices(self) -> int:
        """Vertex universe of the wrapped graph."""
        return self.graph.num_vertices

    def describe(self) -> str:
        """Human-readable one-line description of the source."""
        name = self.graph.name or "graph"
        return f"in-memory {name} ({self.order} order)"


class BinaryFileEdgeSource(EdgeChunkSource):
    """Chunked reader over a binary uint32 edge list on disk.

    The file format is the paper's (and ``write_binary_edgelist``'s):
    raw :data:`~repro.stream.records.EDGE_PAIRS` records, flat
    little-endian uint32 pairs.  Each chunk is one bounded
    :func:`~repro.stream.records.read_records` read;
    ``order="shuffled"`` permutes the chunk read order (seekable) and
    shuffles within each chunk.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        order: str = "natural",
        seed: int = 0,
    ) -> None:
        check_order("binary", order)
        self.path = Path(path)
        self.chunk_size = _check_chunk_size(chunk_size)
        self.order = order
        self.seed = seed
        size = self.path.stat().st_size
        self._num_edges, tail = divmod(size, EDGE_PAIRS.row_bytes)
        if tail:
            raise GraphFormatError(
                f"{path}: binary edge list length {size} is not a multiple "
                f"of {EDGE_PAIRS.row_bytes}"
            )

    def __iter__(self) -> Iterator[EdgeChunk]:
        num_chunks = -(-self._num_edges // self.chunk_size) if self._num_edges else 0
        chunk_ids = np.arange(num_chunks)
        rng = None
        if self.order == "shuffled":
            rng = np.random.default_rng(self.seed)
            rng.shuffle(chunk_ids)
        size = self.path.stat().st_size
        held = self._num_edges * EDGE_PAIRS.row_bytes
        if size != held:
            raise GraphFormatError(
                f"{self.path}: file is {size} bytes but held {held} at open "
                f"({self._num_edges} edges); it changed on disk"
            )
        for c in chunk_ids.tolist():
            start = c * self.chunk_size
            count = min(self.chunk_size, self._num_edges - start)
            for pairs in read_records(
                self.path, EDGE_PAIRS, count, start=start, chunk_size=count
            ):
                eids = np.arange(start, start + count, dtype=np.int64)
                if rng is not None:
                    inner = rng.permutation(count)
                    pairs, eids = pairs[inner], eids[inner]
                _validate_chunk(pairs, self.path)
                yield EdgeChunk(pairs=pairs, eids=eids)

    @property
    def num_edges(self) -> int:
        """Edge count derived from the file size (pairs of uint32)."""
        return self._num_edges

    def describe(self) -> str:
        """Human-readable one-line description of the source."""
        return f"binary file {self.path} ({self.order} order)"


class TextFileEdgeSource(EdgeChunkSource):
    """Chunked reader over a ``u v``-per-line text edge list.

    Lines are parsed lazily; ``#``-prefixed lines and blanks are skipped.
    Edge ids number the *edges* (not the lines), matching what
    :func:`~repro.graph.edgelist.read_text_edgelist` would assign.
    """

    def __init__(
        self, path: str | os.PathLike, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> None:
        self.path = Path(path)
        self.chunk_size = _check_chunk_size(chunk_size)

    def __iter__(self) -> Iterator[EdgeChunk]:
        buf: list[tuple[int, int]] = []
        next_eid = 0
        with open(self.path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise GraphFormatError(
                        f"{self.path}:{lineno}: expected 'u v', got {line!r}"
                    )
                try:
                    u, v = int(fields[0]), int(fields[1])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{self.path}:{lineno}: non-integer id"
                    ) from exc
                if u < 0 or v < 0:
                    # The in-memory Graph constructor rejects negatives;
                    # accepting them here would negative-index degree
                    # arrays downstream instead of raising.
                    raise GraphFormatError(
                        f"{self.path}:{lineno}: negative vertex id "
                        f"({u} {v})"
                    )
                buf.append((u, v))
                if len(buf) >= self.chunk_size:
                    yield self._emit(buf, next_eid)
                    next_eid += len(buf)
                    buf = []
        if buf:
            yield self._emit(buf, next_eid)

    def _emit(self, buf: list[tuple[int, int]], first_eid: int) -> EdgeChunk:
        pairs = np.asarray(buf, dtype=np.int64).reshape(-1, 2)
        _validate_chunk(pairs, self.path)
        return EdgeChunk(
            pairs=pairs,
            eids=np.arange(first_eid, first_eid + pairs.shape[0], dtype=np.int64),
        )

    def describe(self) -> str:
        """Human-readable one-line description of the source."""
        return f"text file {self.path}"


def _validate_chunk(pairs: np.ndarray, path: Path) -> None:
    """Per-chunk stream validation shared by every file-backed source.

    Rejects self-loops (chunked sources require canonical input) and
    negative vertex ids (which the in-memory :class:`Graph` constructor
    rejects; letting them through would silently negative-index degree
    arrays).  Unsigned payloads skip the sign check for free.
    """
    if pairs.size == 0:
        return
    if pairs.dtype.kind != "u" and int(pairs.min()) < 0:
        raise GraphFormatError(
            f"{path}: negative vertex id in edge stream — ids must be "
            f"non-negative, matching the in-memory Graph contract"
        )
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise GraphFormatError(
            f"{path}: self-loop in edge stream — chunked sources require "
            f"canonical input (see repro.graph.edgelist.canonical_edges)"
        )


#: bytes legal in a text edge list: digits, signs, whitespace, comments
#: (comment lines may carry any printable ASCII)
_TEXT_BYTES = frozenset(range(0x20, 0x7F)) | {0x09, 0x0A, 0x0D}

#: how many leading bytes the format sniff inspects
_SNIFF_BYTES = 1024


def sniff_edge_format(path: "str | os.PathLike") -> str | None:
    """Classify an edge file's *content* as ``"text"`` or ``"binary"``.

    Reads the first :data:`_SNIFF_BYTES` bytes: a file consisting purely
    of printable ASCII plus whitespace is a text edge list (the SNAP
    convention); anything with control or high bytes is binary — flat
    uint32 pairs contain ``0x00`` high bytes for every realistic vertex
    id.  An empty file is ambiguous and returns ``None``.
    """
    with open(path, "rb") as fh:
        head = fh.read(_SNIFF_BYTES)
    if not head:
        return None
    return "text" if all(b in _TEXT_BYTES for b in head) else "binary"


def require_edge_format(path: "str | os.PathLike", declared: str) -> None:
    """Raise when a file's sniffed content contradicts its suffix.

    Suffix alone used to decide text-vs-binary, so a text edge list
    named ``*.edges`` was parsed as flat uint32 and silently partitioned
    garbage.  A mismatch is now a :class:`GraphFormatError` instead.
    """
    path = Path(path)
    sniffed = sniff_edge_format(path)
    if sniffed is not None and sniffed != declared:
        expect = (
            f"its suffix {path.suffix!r} declares flat binary uint32 pairs"
            if declared == "binary"
            else f"its suffix {path.suffix!r} implies a 'u v' text edge list"
        )
        raise GraphFormatError(
            f"{path}: content looks like a {sniffed} edge list but "
            f"{expect}; rename the file ({', '.join(BINARY_SUFFIXES)} "
            f"for binary) or convert it"
        )


def open_edge_source(
    source: "str | os.PathLike | Graph | EdgeChunkSource",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    order: str = "natural",
    seed: int = 0,
) -> EdgeChunkSource:
    """One front door for every edge-stream shape.

    * an :class:`EdgeChunkSource` passes through unchanged,
    * a :class:`Graph` becomes an :class:`InMemoryEdgeSource`,
    * a Table 3 dataset name is generated then wrapped in-memory,
    * a ``*.manifest.json`` path becomes a
      :class:`~repro.stream.shard.ShardedEdgeSource`,
    * a ``.bin``/``.edges``/``.bel`` path becomes a
      :class:`BinaryFileEdgeSource`,
    * any other existing path a :class:`TextFileEdgeSource`.

    File contents are sniffed against the suffix's declared format
    (:func:`sniff_edge_format`); a mismatch — e.g. a text edge list
    named ``*.edges`` — raises :class:`GraphFormatError` instead of
    silently parsing garbage.
    """
    if isinstance(source, EdgeChunkSource):
        return source
    if isinstance(source, Graph):
        return InMemoryEdgeSource(source, chunk_size, order=order, seed=seed)
    from repro.graph import datasets

    text = str(source)
    if text.upper() in datasets.available():
        graph = datasets.load(text)
        return InMemoryEdgeSource(graph, chunk_size, order=order, seed=seed)
    path = Path(source)
    if not path.exists():
        raise ConfigurationError(
            f"{text!r} is neither a dataset name "
            f"({', '.join(datasets.available())}) nor a file"
        )
    from repro.stream.shard import ShardedEdgeSource

    source_format = path_format(path)
    if source_format == "manifest":
        check_order(source_format, order)
        return ShardedEdgeSource(path, chunk_size)
    require_edge_format(path, source_format)
    if source_format == "binary":
        return BinaryFileEdgeSource(path, chunk_size, order=order, seed=seed)
    check_order(source_format, order)
    return TextFileEdgeSource(path, chunk_size)
