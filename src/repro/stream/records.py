"""Record files: the one on-disk layout of the stream layer.

Every binary file the out-of-core pipeline writes is a run of
fixed-width little-endian *records* in one :class:`RecordFormat`:

* :data:`EDGE_PAIRS` — ``<u4`` ``(u, v)`` pairs: binary edge lists
  (the paper's format, :mod:`repro.graph.edgelist`), shards and the
  external sort's output;
* :data:`SPILL_TRIPLES` — ``<i8`` ``(u, v, eid)`` triples: HEP's h2h
  spill and the per-worker spill segments;
* :data:`SORT_RUNS` — ``<i8`` ``(key, eid, u, v)`` records: the
  external sort's runs.

A file holds its records in one of two encodings:

* **raw** (``codec=None``) — the rows back to back, no header;
* **framed** (``codec="zlib"``) — an 8-byte :data:`HEADER` (the
  format's magic, :data:`VERSION`, the codec id, two reserved zero
  bytes), then one :data:`FRAME` per :meth:`RecordWriter.append`:
  ``<u4 payload_bytes, <u4 record_count`` and the zlib-deflated rows,
  so the inflate working set on read-back stays bounded by the append
  block size.

:class:`RecordWriter` writes both encodings and :func:`read_records`
reads them back in bounded int64 blocks.  Every size, header, record
count and trailing-byte check lives in the reader, and each failure is
a :class:`~repro.errors.GraphFormatError` naming the file.  The worker
processes frame their control messages with :data:`FRAME` too
(:mod:`repro.stream.workers`).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError, GraphFormatError
from repro.graph.edgelist import BINARY_DTYPE

__all__ = [
    "RecordFormat",
    "RecordWriter",
    "read_records",
    "check_codec",
    "EDGE_PAIRS",
    "SPILL_TRIPLES",
    "SORT_RUNS",
    "CODECS",
    "HEADER",
    "FRAME",
    "VERSION",
    "DEFAULT_CHUNK_SIZE",
]

#: default records per block a read yields (1 MiB of edge pairs)
DEFAULT_CHUNK_SIZE = 1 << 17

#: frame codecs by name, with the id a framed file's header carries
CODECS = {"zlib": 1}

#: framed-file header: magic, version, codec id, reserved
HEADER = struct.Struct("<4sBBH")
#: frame header: payload bytes, record count
FRAME = struct.Struct("<II")
#: framed-file version this build writes and reads
VERSION = 1


@dataclass(frozen=True)
class RecordFormat:
    """One record-file kind: its row dtype and width, and its frame magic."""

    name: str
    dtype: np.dtype
    width: int
    magic: bytes

    @property
    def row_bytes(self) -> int:
        """Bytes one record occupies in a raw file."""
        return self.dtype.itemsize * self.width


EDGE_PAIRS = RecordFormat("pairs", BINARY_DTYPE, 2, b"RSHD")
SPILL_TRIPLES = RecordFormat("spill", np.dtype("<i8"), 3, b"RSPL")
SORT_RUNS = RecordFormat("run", np.dtype("<i8"), 4, b"RRUN")


def check_codec(codec: str | None, knob: str) -> None:
    """Reject a codec name the frame format does not know.

    ``knob`` names the caller's setting in the message (``"spill
    compression"``, ``"shard compression"``).
    """
    if codec is not None and codec not in CODECS:
        raise ConfigurationError(
            f"unknown {knob} {codec!r}; "
            f"available: {', '.join(CODECS)} (or None)"
        )


class RecordWriter:
    """Write one record file: raw rows, or a header and one frame per append.

    Creates (or truncates) ``path``.  The writer is a context manager;
    leaving the ``with`` block closes the file.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        fmt: RecordFormat,
        codec: str | None = None,
    ) -> None:
        check_codec(codec, "compression")
        self.fmt = fmt
        self.codec = codec
        #: bytes written so far, header and frames included
        self.nbytes = 0
        self._fh = open(path, "wb")
        if codec is not None:
            self._write(HEADER.pack(fmt.magic, VERSION, CODECS[codec], 0))

    def _write(self, data) -> None:
        self._fh.write(data)
        self.nbytes += len(data)

    def append(self, rows) -> int:
        """Encode ``rows`` (``(c, width)``, cast to the format's dtype).

        Returns ``c``; an empty block writes nothing, not even a frame.
        """
        data = np.ascontiguousarray(rows, dtype=self.fmt.dtype)
        data = data.reshape(-1, self.fmt.width)
        if data.shape[0] == 0:
            return 0
        if self.codec is None:
            data.tofile(self._fh)
            self.nbytes += data.nbytes
        else:
            payload = zlib.compress(data)
            self._write(FRAME.pack(len(payload), data.shape[0]))
            self._write(payload)
        return data.shape[0]

    def sync(self) -> None:
        """Flush buffered appends and fsync them to disk."""
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Close the file."""
        self._fh.close()

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_records(
    path: str | os.PathLike,
    fmt: RecordFormat,
    count: int,
    codec: str | None = None,
    start: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[np.ndarray]:
    """Yield the ``count`` records of ``path`` as ``(c, width)`` int64 blocks.

    Blocks hold at most ``chunk_size`` records.  A raw file is read
    from record ``start`` on (a contiguous slice of a larger file can
    serve as a virtual shard) and must hold at least ``start + count``
    records.  A framed file is read from its first record (``start``
    is ignored, as frames cannot be seeked by record): its header
    must carry ``fmt``'s magic and ``codec``, its frames must deliver
    exactly ``count`` records and nothing may follow them.  Anything
    else raises :class:`~repro.errors.GraphFormatError` naming the
    file; a block is never short.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    width = fmt.width
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if codec is None:
            end = (start + count) * fmt.row_bytes
            if size < end:
                raise GraphFormatError(
                    f"{path}: file holds {size} bytes, expected at least "
                    f"{end} ({count} records from record {start})"
                )
            fh.seek(start * fmt.row_bytes)
            done = 0
            while done < count:
                rows = min(chunk_size, count - done)
                flat = np.fromfile(fh, dtype=fmt.dtype, count=rows * width)
                if flat.size != rows * width:
                    raise GraphFormatError(
                        f"{path}: truncated at record {start + done} "
                        f"(read {flat.size} of {rows * width} values)"
                    )
                yield flat.reshape(-1, width).astype(np.int64)
                done += rows
            return
        head = fh.read(HEADER.size)
        if len(head) < HEADER.size:
            raise GraphFormatError(f"{path}: header truncated")
        magic, version, codec_id, _ = HEADER.unpack(head)
        expected = (fmt.magic, VERSION, CODECS.get(codec))
        if (magic, version, codec_id) != expected:
            raise GraphFormatError(
                f"{path}: header does not match {fmt.name} records "
                f"with compression={codec!r}"
            )
        offset = HEADER.size
        done = frame = 0
        while done < count:
            head = fh.read(FRAME.size)
            if len(head) < FRAME.size:
                raise GraphFormatError(
                    f"{path}: truncated ({done} of {count} records)"
                )
            payload_bytes, rows = FRAME.unpack(head)
            offset += FRAME.size + payload_bytes
            if done + rows > count:
                raise GraphFormatError(
                    f"{path}: frame {frame} delivers {done + rows} "
                    f"records, expected {count}"
                )
            if offset > size:
                raise GraphFormatError(
                    f"{path}: frame {frame} truncated "
                    f"({done} of {count} records)"
                )
            try:
                data = zlib.decompress(fh.read(payload_bytes))
            except zlib.error as exc:
                raise GraphFormatError(
                    f"{path}: frame {frame} does not inflate ({exc})"
                ) from None
            if len(data) != rows * fmt.row_bytes:
                raise GraphFormatError(
                    f"{path}: frame {frame} inflates to {len(data)} bytes, "
                    f"expected {rows * fmt.row_bytes}"
                )
            flat = np.frombuffer(data, dtype=fmt.dtype)
            block = flat.reshape(-1, width).astype(np.int64)
            for first in range(0, rows, chunk_size):
                yield block[first : first + chunk_size]
            done += rows
            frame += 1
        if fh.read(1):
            raise GraphFormatError(
                f"{path}: holds bytes past its {count} records"
            )
