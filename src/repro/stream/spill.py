"""Disk-backed spill file for h2h edges.

The paper's HEP writes the high/high edges to an *external memory edge
file* at graph-building time and streams them back in phase two.  The
seed implementation kept that buffer in RAM (:class:`ExternalEdges`);
:class:`SpillFile` is the honest version: NE++'s build pass *appends*
h2h chunks here, and the streaming phase reads them back in bounded
chunks — the full h2h edge set never resides in memory.

Two on-disk formats, selected by the ``compression`` parameter:

* **raw** (``compression=None``) — flat little-endian int64 triples
  ``(u, v, eid)``, no header; the PR-1 format, byte-for-byte.
* **zlib frames** (``compression="zlib"``) — an 8-byte header (magic
  ``b"RSPL"``, format version, codec id, 2 reserved bytes) followed by
  frames of ``<u4 payload_bytes, <u4 record_count`` and a
  zlib-compressed block of the same int64 triples.  Each
  :meth:`SpillFile.append` call emits one frame, so the inflate working
  set on read-back stays bounded by the append block size.

The eid travels with the pair so the streamed assignments land in the
same canonical per-edge slots the in-memory path uses, which is what
makes out-of-core HEP bit-identical to in-memory HEP — under either
spill format, since compression only changes the encoding, never the
record sequence.  :func:`read_spill_header` sniffs which format a file
on disk carries.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError, GraphFormatError

__all__ = [
    "SpillFile",
    "read_spill_header",
    "read_spill_chunks",
    "SPILL_MAGIC",
    "SPILL_VERSION",
]

_RECORD_DTYPE = np.dtype("<i8")
_RECORD_WIDTH = 3  # u, v, eid
_RECORD_BYTES = _RECORD_DTYPE.itemsize * _RECORD_WIDTH

#: default read-back chunk size (edges per block)
DEFAULT_SPILL_CHUNK = 1 << 16

#: magic bytes opening a framed (compressed) spill file
SPILL_MAGIC = b"RSPL"
#: framed-format version written into the header
SPILL_VERSION = 1

_CODECS = {"zlib": 1}
_CODEC_NAMES = {v: k for k, v in _CODECS.items()}
_HEADER = struct.Struct("<4sBBH")   # magic, version, codec, reserved
_FRAME = struct.Struct("<II")       # payload bytes, record count


def read_spill_header(path: str | os.PathLike) -> str | None:
    """Sniff the spill format of ``path``.

    Returns the codec name (``"zlib"``) for a framed file, ``None`` for
    the raw headerless format.  The raw format has no header, so a raw
    record could begin with the magic bytes by coincidence; the sniff is
    therefore *structural*: it only reports a framed file when the
    magic, version and codec all validate **and** the frame chain walks
    exactly to end-of-file.  Anything else — including a corrupt or
    future-version header — is reported as raw (``None``) rather than
    raised, since it cannot be told apart from raw record bytes.
    """
    size = os.stat(path).st_size
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            return None
        magic, version, codec, reserved = _HEADER.unpack(head)
        if (
            magic != SPILL_MAGIC
            or version != SPILL_VERSION
            or codec not in _CODEC_NAMES
            or reserved != 0
        ):
            return None
        # Walk the frame chain; only a genuine framed file lands on EOF.
        offset = _HEADER.size
        while offset < size:
            frame = fh.read(_FRAME.size)
            if len(frame) < _FRAME.size:
                return None
            payload_bytes, _count = _FRAME.unpack(frame)
            offset += _FRAME.size + payload_bytes
            if offset > size:
                return None
            fh.seek(offset)
        return _CODEC_NAMES[codec]


def read_spill_chunks(
    path: str | os.PathLike,
    num_edges: int,
    compression: str | None = None,
    chunk_size: int = DEFAULT_SPILL_CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Chunked ``(pairs, eids)`` sweep over an on-disk spill file.

    The standalone counterpart of :meth:`SpillFile.chunks` for a file
    *handed over* to an independent reader — e.g. a worker process
    streaming a per-worker spill segment
    (:mod:`repro.stream.workers`).  The writer must have synced
    (:meth:`SpillFile.sync`) or closed first.  Truncation or a header
    mismatch raises :class:`~repro.errors.GraphFormatError` naming the
    file.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    path = Path(path)
    if compression is None:
        yield from _read_raw_records(path, num_edges, chunk_size)
    else:
        yield from _read_framed_records(
            path, num_edges, compression, chunk_size
        )


def _read_raw_records(
    path: Path, total: int, chunk_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Chunked sweep over the raw flat-record spill format."""
    with open(path, "rb") as reader:
        done = 0
        while done < total:
            count = min(chunk_size, total - done)
            flat = np.fromfile(
                reader, dtype=_RECORD_DTYPE, count=count * _RECORD_WIDTH
            )
            if flat.size != count * _RECORD_WIDTH:
                raise GraphFormatError(
                    f"{path}: spill file truncated "
                    f"({done + flat.size // _RECORD_WIDTH} of {total} edges)"
                )
            records = flat.reshape(-1, _RECORD_WIDTH).astype(np.int64)
            yield records[:, :2], records[:, 2]
            done += count


def _read_framed_records(
    path: Path, total: int, compression: str, chunk_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Inflate spill frames one at a time, re-chunking to ``chunk_size``."""
    done = 0
    with open(path, "rb") as reader:
        head = reader.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise GraphFormatError(f"{path}: spill header truncated")
        magic, version, codec, _ = _HEADER.unpack(head)
        if (
            magic != SPILL_MAGIC
            or version != SPILL_VERSION
            or _CODEC_NAMES.get(codec) != compression
        ):
            raise GraphFormatError(
                f"{path}: spill header does not match "
                f"compression={compression!r}"
            )
        while done < total:
            frame = reader.read(_FRAME.size)
            if len(frame) < _FRAME.size:
                raise GraphFormatError(
                    f"{path}: spill file truncated "
                    f"({done} of {total} edges)"
                )
            payload_bytes, count = _FRAME.unpack(frame)
            if done + count > total:
                # Frames align with append blocks, so a frame spilling
                # past the declared total means the file and the caller's
                # record count disagree — fail like the shard readers do
                # rather than hand extra records downstream.
                raise GraphFormatError(
                    f"{path}: spill frame delivers {done + count} records, "
                    f"expected {total}"
                )
            payload = reader.read(payload_bytes)
            if len(payload) < payload_bytes:
                raise GraphFormatError(
                    f"{path}: spill frame truncated "
                    f"({done} of {total} edges)"
                )
            flat = np.frombuffer(
                zlib.decompress(payload), dtype=_RECORD_DTYPE
            )
            if flat.size != count * _RECORD_WIDTH:
                raise GraphFormatError(
                    f"{path}: spill frame decodes to {flat.size} "
                    f"values, expected {count * _RECORD_WIDTH}"
                )
            records = flat.reshape(-1, _RECORD_WIDTH).astype(np.int64)
            for start in range(0, count, chunk_size):
                block = records[start : start + chunk_size]
                yield block[:, :2], block[:, 2]
            done += count


def _check_compression(compression: str | None) -> None:
    """Reject a spill codec the frame format does not know."""
    if compression is not None and compression not in _CODECS:
        raise ConfigurationError(
            f"unknown spill compression {compression!r}; "
            f"available: {', '.join(_CODECS)} (or None)"
        )


class SpillFile:
    """Append-only on-disk edge buffer with chunked read-back.

    Parameters
    ----------
    dir:
        Directory for the backing file (a fresh temporary file is created
        there; defaults to the system temp dir).
    path:
        Explicit backing-file path.  When given, the file is created (or
        truncated) at that location instead of a temporary name.
    delete:
        Remove the backing file on :meth:`close` / context-manager exit.
    compression:
        ``None`` for raw records (the default), ``"zlib"`` for
        compressed frames with a format header.

    The object is a context manager: leaving the ``with`` block — also on
    an exception — closes and (by default) deletes the backing file.
    Iteration (:meth:`chunks`) may be repeated and interleaved with
    further :meth:`append` calls; each ``chunks()`` call syncs the write
    handle to disk (flush + fsync) and re-reads from the start of the
    file, so a reader opening the path mid-write sees every record
    appended so far.
    """

    def __init__(
        self,
        dir: str | os.PathLike | None = None,
        path: str | os.PathLike | None = None,
        delete: bool = True,
        compression: str | None = None,
    ) -> None:
        _check_compression(compression)
        if path is not None:
            self.path = Path(path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "wb")
        else:
            if dir is not None:
                Path(dir).mkdir(parents=True, exist_ok=True)
            fd, name = tempfile.mkstemp(
                prefix="h2h-spill-", suffix=".bin", dir=dir
            )
            self.path = Path(name)
            self._fh = os.fdopen(fd, "wb")
        self.compression = compression
        self.delete = delete
        self._num_edges = 0
        self._bytes_written = 0
        self._closed = False
        if compression is not None:
            header = _HEADER.pack(
                SPILL_MAGIC, SPILL_VERSION, _CODECS[compression], 0
            )
            self._fh.write(header)
            self._bytes_written += len(header)

    # -- writing -----------------------------------------------------------

    def append(self, pairs: np.ndarray, eids: np.ndarray) -> int:
        """Append a block of ``(u, v)`` pairs with their canonical edge ids.

        Returns the number of edges appended (zero-size blocks are a
        no-op, so callers can feed every chunk unconditionally).  In
        compressed mode each call emits one frame.
        """
        if self._closed:
            raise ValueError("append() on a closed SpillFile")
        pairs = np.ascontiguousarray(pairs, dtype=np.int64).reshape(-1, 2)
        eids = np.ascontiguousarray(eids, dtype=np.int64)
        if eids.shape != (pairs.shape[0],):
            raise GraphFormatError("eids must parallel pairs")
        if pairs.shape[0] == 0:
            return 0
        records = np.empty((pairs.shape[0], _RECORD_WIDTH), dtype=_RECORD_DTYPE)
        records[:, :2] = pairs
        records[:, 2] = eids
        if self.compression is None:
            records.tofile(self._fh)
            self._bytes_written += records.nbytes
        else:
            payload = zlib.compress(records.tobytes())
            frame = _FRAME.pack(len(payload), pairs.shape[0])
            self._fh.write(frame)
            self._fh.write(payload)
            self._bytes_written += len(frame) + len(payload)
        self._num_edges += pairs.shape[0]
        return pairs.shape[0]

    def sync(self) -> None:
        """Flush buffered appends and fsync them to disk.

        Called automatically at the start of :meth:`chunks`; exposed so
        a phase handing the path to an *independent* reader can force
        visibility first.
        """
        if self._closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # -- reading -----------------------------------------------------------

    def chunks(
        self, chunk_size: int = DEFAULT_SPILL_CHUNK
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(pairs, eids)`` blocks of at most ``chunk_size`` edges.

        Appended data is synced to disk first (flush + fsync), so
        everything written before the call is visible.  The write handle
        stays open — appending after (or between) iterations is allowed.
        """
        if self._closed:
            raise ValueError("chunks() on a closed SpillFile")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.sync()
        yield from read_spill_chunks(
            self.path, self._num_edges, self.compression, chunk_size
        )

    def __len__(self) -> int:
        """Number of edges spilled so far."""
        return self._num_edges

    @property
    def nbytes(self) -> int:
        """Bytes the spill occupies on disk (flushed + buffered)."""
        return self._bytes_written

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Close the write handle; remove the file when ``delete`` is set."""
        if self._closed:
            return
        self._closed = True
        self._fh.close()
        if self.delete:
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SpillFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        codec = self.compression or "raw"
        state = "closed" if self._closed else "open"
        return (
            f"SpillFile({str(self.path)!r}, edges={self._num_edges:,}, "
            f"bytes={self.nbytes:,}, {codec}, {state})"
        )
