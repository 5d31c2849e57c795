"""Bit-packed set over vertex ids ``0 .. n-1``.

The paper (Section 4.2) tracks the core set ``C`` and each secondary set
``S_i`` as dense bitsets: one bit per vertex, ``|V| * (k+1) / 8`` bytes in
total.  :class:`PackedBitset` stores one genuine bit per vertex; the
out-of-core metrics pass keeps its ``k`` per-partition vertex covers in
them (:class:`~repro.stream.scan.PackedCover`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["PackedBitset"]

#: set-bit count per byte value — one table lookup vectorizes popcounts
_POPCOUNT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.int64)


class PackedBitset:
    """Fixed-universe set of integers in ``[0, size)`` — one *bit* per id.

    This is the paper-faithful footprint — id ``i`` lives in bit
    ``i & 7`` of word byte ``i >> 3`` (little bit order,
    ``np.unpackbits(..., bitorder="little")`` compatible) — so ``k``
    per-partition vertex covers cost ``k * ceil(n / 8)`` bytes, 8x less
    than boolean rows.  Bulk inserts and unions stay vectorized.

    >>> s = PackedBitset(12)
    >>> s.add_many([3, 8, 11])
    >>> 3 in s, 4 in s, s.count()
    (True, False, 3)
    """

    __slots__ = ("_words", "_size")

    def __init__(self, size: int, words: np.ndarray | None = None) -> None:
        if size < 0:
            raise ConfigurationError(f"bitset size must be >= 0, got {size}")
        self._size = size
        nbytes = (size + 7) // 8
        if words is None:
            self._words = np.zeros(nbytes, dtype=np.uint8)
        else:
            if words.dtype != np.uint8 or words.ndim != 1:
                raise ConfigurationError(
                    "words must be a 1-D uint8 array of packed bits"
                )
            if words.shape[0] != nbytes:
                raise ConfigurationError(
                    f"universe of {size} ids needs {nbytes} packed bytes, "
                    f"got {words.shape[0]}"
                )
            self._words = words

    @property
    def size(self) -> int:
        """Universe size (number of addressable ids)."""
        return self._size

    @property
    def words(self) -> np.ndarray:
        """The packed uint8 word array (shared, not a copy)."""
        return self._words

    @property
    def nbytes(self) -> int:
        """Actual footprint of the packed words (``ceil(size / 8)``)."""
        return self._words.nbytes

    def add(self, item: int) -> None:
        """Insert ``item``; raises ``IndexError`` if out of universe."""
        if not 0 <= item < self._size:
            raise IndexError(f"id {item} outside universe [0, {self._size})")
        self._words[item >> 3] |= np.uint8(1 << (item & 7))

    def add_many(self, items: Iterable[int] | np.ndarray) -> None:
        """Insert every id in ``items`` (vectorized, duplicates welcome)."""
        idx = np.asarray(items, dtype=np.int64)
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self._size:
            raise IndexError("id outside universe")
        # Group by bit position: within one group every scatter writes
        # the same OR-mask, so duplicate byte indices are harmless under
        # numpy's buffered fancy-index assignment (no slow ufunc.at).
        bytes_idx = idx >> 3
        bits = idx & 7
        for b in range(8):
            sel = bytes_idx[bits == b]
            if sel.size:
                self._words[sel] |= np.uint8(1 << b)

    def __contains__(self, item: int) -> bool:
        if not 0 <= item < self._size:
            return False
        return bool(self._words[item >> 3] & np.uint8(1 << (item & 7)))

    def count(self) -> int:
        """Number of set bits (table-lookup popcount)."""
        return int(_POPCOUNT[self._words].sum())

    def __len__(self) -> int:
        return self.count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_indices().tolist())

    def to_indices(self) -> np.ndarray:
        """Sorted array of all ids currently in the set."""
        mask = np.unpackbits(
            self._words, count=self._size, bitorder="little"
        ).astype(bool)
        return np.flatnonzero(mask)

    def union_update(self, other: "PackedBitset | np.ndarray") -> None:
        """In-place union with another packed set over the same universe."""
        words = other._words if isinstance(other, PackedBitset) else other
        if words.shape != self._words.shape:
            raise ConfigurationError(
                f"universe mismatch: {words.shape[0]} packed bytes vs "
                f"{self._words.shape[0]}"
            )
        np.bitwise_or(self._words, words, out=self._words)

    def clear(self) -> None:
        """Remove all elements."""
        self._words[:] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedBitset(size={self._size}, count={self.count()})"
