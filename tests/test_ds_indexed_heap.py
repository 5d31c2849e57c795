"""Unit and property tests for repro._ds.indexed_heap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._ds import IndexedMinHeap


class TestHeapBasics:
    def test_empty(self):
        h = IndexedMinHeap()
        assert len(h) == 0
        assert not h
        with pytest.raises(IndexError):
            h.pop_min()
        with pytest.raises(IndexError):
            h.peek_min()

    def test_push_pop_single(self):
        h = IndexedMinHeap()
        h.push(42, priority=7)
        assert 42 in h
        assert h.priority(42) == 7
        assert h.pop_min() == (42, 7)
        assert 42 not in h

    def test_pop_order(self):
        h = IndexedMinHeap()
        for item, prio in [(1, 5), (2, 1), (3, 3), (4, 2), (5, 4)]:
            h.push(item, prio)
        popped = [h.pop_min() for _ in range(5)]
        assert [p for _, p in popped] == [1, 2, 3, 4, 5]

    def test_push_duplicate_raises(self):
        h = IndexedMinHeap()
        h.push(1, priority=1)
        with pytest.raises(ValueError):
            h.push(1, priority=2)

    def test_update_decrease(self):
        h = IndexedMinHeap()
        h.push(1, priority=10)
        h.push(2, priority=5)
        h.update(1, priority=0)
        assert h.pop_min() == (1, 0)

    def test_update_increase(self):
        h = IndexedMinHeap()
        h.push(1, priority=1)
        h.push(2, priority=5)
        h.update(1, priority=9)
        assert h.pop_min() == (2, 5)

    def test_update_same_priority_noop(self):
        h = IndexedMinHeap()
        h.push(1, priority=3)
        h.update(1, priority=3)
        assert h.priority(1) == 3

    def test_update_absent_raises(self):
        h = IndexedMinHeap()
        with pytest.raises(KeyError):
            h.update(1, priority=1)

    def test_decrement_default(self):
        h = IndexedMinHeap()
        h.push(9, priority=4)
        h.decrement(9)
        assert h.priority(9) == 3
        h.decrement(9, by=2)
        assert h.priority(9) == 1

    def test_push_or_update(self):
        h = IndexedMinHeap()
        h.push_or_update(1, priority=5)
        h.push_or_update(1, priority=2)
        assert h.priority(1) == 2

    def test_remove_middle(self):
        h = IndexedMinHeap()
        for item, prio in [(1, 1), (2, 2), (3, 3), (4, 4)]:
            h.push(item, prio)
        h.remove(2)
        assert 2 not in h
        popped = [h.pop_min()[0] for _ in range(3)]
        assert popped == [1, 3, 4]

    def test_remove_last(self):
        h = IndexedMinHeap()
        h.push(1, priority=1)
        h.remove(1)
        assert len(h) == 0

    def test_remove_absent_raises(self):
        h = IndexedMinHeap()
        with pytest.raises(KeyError):
            h.remove(1)

    def test_discard_absent_noop(self):
        h = IndexedMinHeap()
        h.discard(1)
        assert len(h) == 0

    def test_clear(self):
        h = IndexedMinHeap()
        h.push(1, priority=1)
        h.clear()
        assert not h
        h.push(1, priority=1)  # reusable after clear
        assert h.pop_min() == (1, 1)

    def test_ties_all_returned(self):
        h = IndexedMinHeap()
        for item in range(10):
            h.push(item, priority=0)
        popped = sorted(h.pop_min()[0] for _ in range(10))
        assert popped == list(range(10))


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["push", "update", "pop", "remove"]),
            st.integers(0, 20),
            st.integers(-50, 50),
        ),
        max_size=300,
    )
)
def test_heap_matches_reference_model(ops):
    """Property: heap agrees with a dict-based reference under random ops."""
    heap = IndexedMinHeap()
    model: dict[int, int] = {}
    for op, item, prio in ops:
        if op == "push":
            if item in model:
                with pytest.raises(ValueError):
                    heap.push(item, prio)
            else:
                heap.push(item, prio)
                model[item] = prio
        elif op == "update":
            if item in model:
                heap.update(item, prio)
                model[item] = prio
            else:
                with pytest.raises(KeyError):
                    heap.update(item, prio)
        elif op == "pop":
            if model:
                popped_item, popped_prio = heap.pop_min()
                assert popped_prio == min(model.values())
                assert model[popped_item] == popped_prio
                del model[popped_item]
            else:
                with pytest.raises(IndexError):
                    heap.pop_min()
        else:  # remove
            if item in model:
                heap.remove(item)
                del model[item]
            else:
                with pytest.raises(KeyError):
                    heap.remove(item)
        heap._check_invariants()
        assert len(heap) == len(model)
    # Drain: residual contents must match the model exactly.
    drained = {}
    while heap:
        item, prio = heap.pop_min()
        drained[item] = prio
    assert drained == model


class SwapIndexedMinHeap(IndexedMinHeap):
    """The swap-based sifts that the hole-based ones replaced.

    Kept as the reference for the heap's arrangement: NE++ cores the
    top of the heap next, so the arrangement decides which of two
    vertices with equal ``d_ext`` is cored first.
    """

    __slots__ = ()

    def pop_min(self) -> tuple[int, int]:
        if not self._items:
            raise IndexError("pop from empty heap")
        top_item = self._items[0]
        top_prio = self._prios[0]
        self._swap(0, len(self._items) - 1)
        self._items.pop()
        self._prios.pop()
        del self._pos[top_item]
        if self._items:
            self._sift_down(0)
        return top_item, top_prio

    def remove(self, item: int) -> None:
        slot = self._pos[item]
        last = len(self._items) - 1
        self._swap(slot, last)
        self._items.pop()
        self._prios.pop()
        del self._pos[item]
        if slot <= last - 1 and self._items:
            # Restore heap order at the vacated slot.
            self._sift_up(slot)
            self._sift_down(slot)

    def _swap(self, a: int, b: int) -> None:
        items, prios, pos = self._items, self._prios, self._pos
        items[a], items[b] = items[b], items[a]
        prios[a], prios[b] = prios[b], prios[a]
        pos[items[a]] = a
        pos[items[b]] = b

    def _sift_up(self, slot: int) -> None:
        prios = self._prios
        while slot > 0:
            parent = (slot - 1) >> 1
            if prios[slot] < prios[parent]:
                self._swap(slot, parent)
                slot = parent
            else:
                break

    def _sift_down(self, slot: int) -> None:
        prios = self._prios
        n = len(prios)
        while True:
            left = 2 * slot + 1
            right = left + 1
            smallest = slot
            if left < n and prios[left] < prios[smallest]:
                smallest = left
            if right < n and prios[right] < prios[smallest]:
                smallest = right
            if smallest == slot:
                return
            self._swap(slot, smallest)
            slot = smallest


def _apply(heap, op, item, value):
    """Run one operation; its return value or the type it raised."""
    calls = {
        "push": lambda: heap.push(item, value),
        "pop_min": heap.pop_min,
        "update": lambda: heap.update(item, value),
        "decrement": lambda: heap.decrement(item, value),
        "remove": lambda: heap.remove(item),
        "discard": lambda: heap.discard(item),
        "clear": heap.clear,
    }
    try:
        return calls[op]()
    except (IndexError, KeyError, ValueError) as exc:
        return type(exc)


# push weighted up so the heap grows; a narrow priority range forces ties
_HEAP_OPS = ["push"] * 6 + [
    "pop_min", "pop_min", "update", "decrement", "decrement", "remove",
    "discard",
]


@settings(max_examples=150)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(_HEAP_OPS + ["clear"]),
            st.integers(0, 40),
            st.integers(-3, 3),
        ),
        min_size=60,
        max_size=400,
    )
)
def test_hole_sifts_keep_the_swap_arrangement(ops):
    """Property: every operation returns what the swap-based heap returns
    and leaves identical ``_items``, ``_prios`` and ``_pos``.  Long
    sequences over a narrow priority range make the heap deep enough for
    children that tie."""
    heap = IndexedMinHeap()
    reference = SwapIndexedMinHeap()
    for op, item, value in ops:
        assert _apply(heap, op, item, value) == _apply(
            reference, op, item, value
        )
        assert heap._items == reference._items
        assert heap._prios == reference._prios
        assert heap._pos == reference._pos
