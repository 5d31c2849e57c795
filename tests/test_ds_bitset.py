"""Unit and property tests for repro._ds.bitset."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._ds import PackedBitset
from repro.errors import ConfigurationError


class TestPackedBitset:
    def test_empty_on_creation(self):
        s = PackedBitset(12)
        assert s.count() == 0
        assert len(s) == 0
        assert 0 not in s
        assert s.nbytes == 2  # ceil(12 / 8)

    def test_add_and_contains(self):
        s = PackedBitset(12)
        s.add(3)
        s.add(11)
        assert 3 in s and 11 in s
        assert 4 not in s
        assert -1 not in s and 12 not in s
        assert s.count() == 2

    def test_add_out_of_universe_raises(self):
        s = PackedBitset(8)
        with pytest.raises(IndexError):
            s.add(8)
        with pytest.raises(IndexError):
            s.add_many([0, 9])

    def test_add_many_duplicates_and_shared_bytes(self):
        # ids sharing a byte with different bit positions must all land.
        s = PackedBitset(32)
        s.add_many(np.array([0, 1, 2, 7, 7, 8, 15, 16, 31]))
        assert sorted(s) == [0, 1, 2, 7, 8, 15, 16, 31]

    def test_to_indices_and_bitset_round_trip(self):
        model = {19, 1, 9}
        packed = PackedBitset(20)
        packed.add_many(sorted(model, reverse=True))
        assert packed.nbytes == 3  # ceil(20 / 8)
        assert packed.to_indices().tolist() == sorted(model)
        back = PackedBitset(20, words=packed.words.copy())
        assert set(back) == model

    def test_union_update(self):
        a = PackedBitset(16)
        b = PackedBitset(16)
        a.add_many([0, 5])
        b.add_many([5, 13])
        a.union_update(b)
        assert sorted(a) == [0, 5, 13]
        with pytest.raises(ConfigurationError):
            a.union_update(PackedBitset(32))

    def test_words_validation(self):
        with pytest.raises(ConfigurationError):
            PackedBitset(-1)
        with pytest.raises(ConfigurationError):
            PackedBitset(16, words=np.zeros(1, dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            PackedBitset(16, words=np.zeros(2, dtype=np.int64))

    def test_words_are_views(self):
        words = np.zeros(4, dtype=np.uint8)
        s = PackedBitset(32, words=words)
        s.add(9)
        assert words[1] == 2  # bit 1 of byte 1 (little bit order)

    def test_clear(self):
        s = PackedBitset(10)
        s.add_many([1, 2, 3])
        s.clear()
        assert s.count() == 0


@given(
    ids=st.lists(st.integers(0, 63), max_size=200),
)
def test_packed_bitset_matches_python_set(ids):
    """Property: PackedBitset tracks a built-in set exactly, one bit per id."""
    model = set(ids)
    packed = PackedBitset(64)
    packed.add_many(np.asarray(ids, dtype=np.int64))
    assert packed.count() == len(model)
    assert packed.to_indices().tolist() == sorted(model)
    assert all((value in packed) == (value in model) for value in range(64))
    assert packed.nbytes == 8
