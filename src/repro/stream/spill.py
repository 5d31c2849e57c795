"""Disk-backed spill file for h2h edges.

The paper's HEP writes the high/high edges to an *external memory edge
file* at graph-building time and streams them back in phase two.  The
seed implementation kept that buffer in RAM (:class:`ExternalEdges`);
:class:`SpillFile` is the honest version: NE++'s build pass *appends*
h2h chunks here, and the streaming phase reads them back in bounded
chunks — the full h2h edge set never resides in memory.

The records are :data:`~repro.stream.records.SPILL_TRIPLES` ``(u, v,
eid)`` triples, written and read through :mod:`repro.stream.records`:
raw (``compression=None``, the default) or, with
``compression="zlib"``, framed with one zlib frame per
:meth:`SpillFile.append`, so the inflate working set on read-back stays
bounded by the append block size.

The eid travels with the pair so the streamed assignments land in the
same canonical per-edge slots the in-memory path uses, which is what
makes out-of-core HEP bit-identical to in-memory HEP — under either
encoding, since compression only changes the encoding, never the
record sequence.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError
from repro.stream.records import (
    DEFAULT_CHUNK_SIZE,
    SPILL_TRIPLES,
    RecordWriter,
    check_codec,
    read_records,
)

__all__ = ["SpillFile"]


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
        check_codec(compression, "spill compression")
        if path is None:
            if dir is not None:
                Path(dir).mkdir(parents=True, exist_ok=True)
            fd, path = tempfile.mkstemp(
                prefix="h2h-spill-", suffix=".bin", dir=dir
            )
            os.close(fd)
        else:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        self.path = Path(path)
        self._writer = RecordWriter(self.path, SPILL_TRIPLES, compression)
        self.compression = compression
        self.delete = delete
        self._num_edges = 0
        self._closed = False

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
        records = np.empty((pairs.shape[0], 3), dtype=np.int64)
        records[:, :2] = pairs
        records[:, 2] = eids
        appended = self._writer.append(records)
        self._num_edges += appended
        return appended

    def sync(self) -> None:
        """Flush buffered appends and fsync them to disk.

        Called automatically at the start of :meth:`chunks`; exposed so
        a phase handing the path to an *independent* reader can force
        visibility first.
        """
        if not self._closed:
            self._writer.sync()

    # -- reading -----------------------------------------------------------

    def chunks(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(pairs, eids)`` blocks of at most ``chunk_size`` edges.

        Appended data is synced to disk first (flush + fsync), so
        everything written before the call is visible.  The write handle
        stays open — appending after (or between) iterations is allowed.
        """
        if self._closed:
            raise ValueError("chunks() on a closed SpillFile")
        self.sync()
        for records in read_records(
            self.path, SPILL_TRIPLES, self._num_edges, self.compression,
            chunk_size=chunk_size,
        ):
            yield records[:, :2], records[:, 2]

    def __len__(self) -> int:
        """Number of edges spilled so far."""
        return self._num_edges

    @property
    def nbytes(self) -> int:
        """Bytes the spill occupies on disk (flushed + buffered)."""
        return self._writer.nbytes

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
        self._writer.close()
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
