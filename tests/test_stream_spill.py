"""SpillFile: the disk-backed h2h edge buffer (raw and zlib formats)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, GraphFormatError
from repro.stream import SpillFile


def _block(edges):
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return arr, np.arange(arr.shape[0], dtype=np.int64)


def _drain(spill, chunk_size=1000):
    pairs, eids = [], []
    for p, e in spill.chunks(chunk_size):
        pairs.append(p)
        eids.append(e)
    if not pairs:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.vstack(pairs), np.concatenate(eids)


class TestAppendIterate:
    def test_roundtrip(self, tmp_path):
        pairs, eids = _block([(0, 1), (2, 3), (4, 5)])
        with SpillFile(dir=tmp_path) as spill:
            assert spill.append(pairs, eids) == 3
            got_pairs, got_eids = _drain(spill)
            assert np.array_equal(got_pairs, pairs)
            assert np.array_equal(got_eids, eids)

    def test_chunk_boundaries(self, tmp_path):
        pairs = np.arange(20, dtype=np.int64).reshape(-1, 2)
        eids = np.arange(10, dtype=np.int64) * 7
        with SpillFile(dir=tmp_path) as spill:
            spill.append(pairs, eids)
            for chunk_size in (1, 3, 10, 99):
                got_pairs, got_eids = _drain(spill, chunk_size)
                assert np.array_equal(got_pairs, pairs)
                assert np.array_equal(got_eids, eids)
                sizes = [p.shape[0] for p, _ in spill.chunks(chunk_size)]
                assert all(s <= chunk_size for s in sizes)

    def test_len_and_nbytes(self, tmp_path):
        with SpillFile(dir=tmp_path) as spill:
            assert len(spill) == 0 and spill.nbytes == 0
            spill.append(*_block([(1, 2)]))
            spill.append(*_block([(3, 4), (5, 6)]))
            assert len(spill) == 3
            assert spill.nbytes == 3 * 3 * 8

    def test_empty_append_is_noop(self, tmp_path):
        with SpillFile(dir=tmp_path) as spill:
            assert spill.append(np.empty((0, 2)), np.empty(0)) == 0
            assert len(spill) == 0

    def test_mismatched_eids_rejected(self, tmp_path):
        with SpillFile(dir=tmp_path) as spill:
            with pytest.raises(GraphFormatError):
                spill.append(np.zeros((2, 2)), np.zeros(3))


class TestEdgeCases:
    def test_empty_spill_yields_nothing(self, tmp_path):
        with SpillFile(dir=tmp_path) as spill:
            assert list(spill.chunks()) == []
            assert len(spill) == 0

    def test_reopened_after_iteration(self, tmp_path):
        """Appending after a full read-back must extend later reads."""
        with SpillFile(dir=tmp_path) as spill:
            spill.append(*_block([(0, 1)]))
            first, _ = _drain(spill)
            assert first.shape[0] == 1
            spill.append(np.asarray([(8, 9)]), np.asarray([5]))
            again_pairs, again_eids = _drain(spill)
            assert again_pairs.shape[0] == 2
            assert again_eids.tolist() == [0, 5]

    def test_iterate_twice(self, tmp_path):
        with SpillFile(dir=tmp_path) as spill:
            spill.append(*_block([(0, 1), (2, 3)]))
            a, _ = _drain(spill)
            b, _ = _drain(spill)
            assert np.array_equal(a, b)

    def test_cleanup_on_exception(self, tmp_path):
        """The context manager removes the file even on an error path."""
        with pytest.raises(RuntimeError):
            with SpillFile(dir=tmp_path) as spill:
                spill.append(*_block([(0, 1)]))
                path = spill.path
                raise RuntimeError("mid-spill failure")
        assert not path.exists()
        assert spill.closed

    def test_keep_on_disk(self, tmp_path):
        with SpillFile(dir=tmp_path, delete=False) as spill:
            spill.append(*_block([(0, 1)]))
            path = spill.path
        assert path.exists()
        assert path.stat().st_size == 3 * 8

    def test_explicit_path(self, tmp_path):
        target = tmp_path / "nested" / "h2h.bin"
        with SpillFile(path=target) as spill:
            spill.append(*_block([(0, 1)]))
            assert spill.path == target
            assert target.exists()
        assert not target.exists()  # delete defaults to True

    def test_closed_spill_rejects_use(self, tmp_path):
        spill = SpillFile(dir=tmp_path)
        spill.close()
        with pytest.raises(ValueError):
            spill.append(*_block([(0, 1)]))
        with pytest.raises(ValueError):
            list(spill.chunks())

    def test_double_close_is_safe(self, tmp_path):
        spill = SpillFile(dir=tmp_path)
        spill.close()
        spill.close()
        assert spill.closed


class TestMidWriteVisibility:
    """Regression: a reader opening the file mid-write sees every record.

    The write handle is buffered; before the fsync fix a phase-two
    reader (or crash-recovery tooling) opening the path could observe a
    short file.  ``sync()`` — called implicitly by ``chunks()`` — must
    make all appended records durable and visible.
    """

    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_independent_reader_after_sync(self, tmp_path, compression):
        pairs, eids = _block([(0, 1), (2, 3), (4, 5), (6, 7)])
        with SpillFile(
            dir=tmp_path, delete=False, compression=compression
        ) as spill:
            spill.append(pairs, eids)
            path = spill.path
            spill.sync()
            # A *separate* reader opens the path while the writer is
            # still open: the bytes on disk must already be complete.
            assert path.stat().st_size == spill.nbytes
        spill_path_exists = path.exists()
        assert spill_path_exists

    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_chunks_interleaved_with_appends(self, tmp_path, compression):
        """chunks() mid-write, more appends, chunks() again — all visible."""
        with SpillFile(dir=tmp_path, compression=compression) as spill:
            spill.append(*_block([(0, 1), (2, 3)]))
            first, _ = _drain(spill)
            assert first.shape[0] == 2
            spill.append(np.asarray([(8, 9), (10, 11)]), np.asarray([7, 9]))
            again_pairs, again_eids = _drain(spill)
            assert again_pairs.shape[0] == 4
            assert again_eids.tolist() == [0, 1, 7, 9]

    def test_sync_on_closed_spill_is_noop(self, tmp_path):
        spill = SpillFile(dir=tmp_path)
        spill.close()
        spill.sync()  # must not raise on the closed handle


class TestCompressedFormat:
    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    def test_roundtrip(self, tmp_path, chunk_size):
        pairs = np.arange(40, dtype=np.int64).reshape(-1, 2)
        eids = np.arange(20, dtype=np.int64) * 3
        with SpillFile(dir=tmp_path, compression="zlib") as spill:
            spill.append(pairs[:12], eids[:12])
            spill.append(pairs[12:], eids[12:])
            got_pairs, got_eids = _drain(spill, chunk_size)
            assert np.array_equal(got_pairs, pairs)
            assert np.array_equal(got_eids, eids)
            sizes = [p.shape[0] for p, _ in spill.chunks(chunk_size)]
            assert all(s <= chunk_size for s in sizes)

    def test_raw_record_resembling_magic_not_misread(self, tmp_path):
        """Regression: a raw spill whose first u happens to start with
        the magic bytes must still read back as raw, not raise/misparse."""
        u_as_magic = int.from_bytes(b"RSPL", "little")  # 0x4C505352
        pairs = np.asarray([(u_as_magic, 7), (1, 2)], dtype=np.int64)
        eids = np.asarray([0, 1], dtype=np.int64)
        with SpillFile(dir=tmp_path, delete=False) as raw:
            raw.append(pairs, eids)
            raw.sync()
            got_pairs, _ = _drain(raw)
            assert np.array_equal(got_pairs, pairs)

    def test_compresses_redundant_data(self, tmp_path):
        """Realistic h2h spills (hub-heavy pairs) must shrink on disk."""
        pairs = np.zeros((5000, 2), dtype=np.int64)
        pairs[:, 1] = np.arange(5000) % 17
        eids = np.arange(5000, dtype=np.int64)
        with SpillFile(dir=tmp_path, compression="zlib") as z, SpillFile(
            dir=tmp_path
        ) as raw:
            z.append(pairs, eids)
            raw.append(pairs, eids)
            assert z.nbytes < raw.nbytes // 4
            assert len(z) == len(raw) == 5000

    def test_empty_compressed_spill(self, tmp_path):
        with SpillFile(dir=tmp_path, compression="zlib") as spill:
            assert list(spill.chunks()) == []
            assert len(spill) == 0

    def test_unknown_compression_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SpillFile(dir=tmp_path, compression="lz4")

    def test_truncated_compressed_file_detected(self, tmp_path):
        target = tmp_path / "trunc.bin"
        spill = SpillFile(path=target, delete=False, compression="zlib")
        spill.append(*_block([(0, 1), (2, 3), (4, 5)]))
        spill.sync()
        size = target.stat().st_size
        spill._num_edges += 10  # claim more records than the file holds
        with pytest.raises(GraphFormatError):
            list(spill.chunks())
        spill._num_edges -= 10
        spill.close()
        assert size > 0


class TestReadSpillChunksStandalone:
    """A spill file handed over to an independent reader (as the worker
    segments are) reads back through the record codec."""

    def test_matches_spillfile_chunks(self, tmp_path):
        from repro.stream.records import SPILL_TRIPLES, read_records

        pairs = np.arange(40, dtype=np.int64).reshape(-1, 2)
        eids = np.arange(20, dtype=np.int64)
        with SpillFile(path=tmp_path / "s.spill", delete=False,
                       compression="zlib") as spill:
            spill.append(pairs, eids)
            spill.sync()
            got = np.vstack(
                list(read_records(spill.path, SPILL_TRIPLES, 20, "zlib",
                                  chunk_size=7))
            )
        assert np.array_equal(got[:, :2], pairs)
        assert np.array_equal(got[:, 2], eids)

    def test_framed_over_delivery_raises(self, tmp_path):
        """A frame spilling past the declared total must raise, not hand
        extra records downstream (worker segments trust their count)."""
        from repro.stream.records import SPILL_TRIPLES, read_records

        pairs = np.arange(24, dtype=np.int64).reshape(-1, 2)
        with SpillFile(path=tmp_path / "s.spill", delete=False,
                       compression="zlib") as spill:
            spill.append(pairs, np.arange(12, dtype=np.int64))
            spill.sync()
            with pytest.raises(GraphFormatError, match="delivers"):
                list(read_records(spill.path, SPILL_TRIPLES, 5, "zlib",
                                  chunk_size=4))
