"""Binary min-heap with by-key decrease/increase and O(1) membership.

The NE/NE++ expansion step repeatedly needs ``argmin_{v in S_i \\ C}
d_ext(v, S_i)`` while external degrees of arbitrary boundary vertices
change.  The paper (Section 4.2, item 5) pairs a binary min-heap with a
lookup table from vertex id to heap slot; this class is exactly that
structure.

Keys are integers (external degrees); items are vertex ids.  All
operations are ``O(log n)`` except ``__contains__``/``priority`` which are
``O(1)``.

Sifting moves a *hole* rather than swapping: the moving entry is held
aside while the entries it passes shift one level, and it is written
once where it stops.  The comparisons are those of the textbook
swap-based sift (strict ``<``, left child before right on a tie), so
every operation leaves the same arrangement.  That arrangement is a
contract: NE++ cores the heap's top next, so it decides which of two
vertices with equal ``d_ext`` is cored first.
"""

from __future__ import annotations

__all__ = ["IndexedMinHeap"]


class IndexedMinHeap:
    """Min-heap of ``(priority, item)`` supporting update-by-item.

    >>> h = IndexedMinHeap()
    >>> h.push(7, priority=3); h.push(2, priority=1); h.push(9, priority=2)
    >>> h.pop_min()
    (2, 1)
    >>> h.update(7, priority=0)
    >>> h.pop_min()
    (7, 0)
    """

    __slots__ = ("_items", "_prios", "_pos")

    def __init__(self) -> None:
        self._items: list[int] = []   # heap-ordered item ids
        self._prios: list[int] = []   # parallel priorities
        self._pos: dict[int, int] = {}  # item id -> slot in _items

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, item: int) -> bool:
        return item in self._pos

    def priority(self, item: int) -> int:
        """Current priority of ``item``; raises ``KeyError`` if absent."""
        return self._prios[self._pos[item]]

    def push(self, item: int, priority: int) -> None:
        """Insert a new item; raises ``ValueError`` if already present."""
        if item in self._pos:
            raise ValueError(f"item {item} already in heap")
        self._items.append(item)
        self._prios.append(priority)
        self._pos[item] = len(self._items) - 1
        self._sift_up(len(self._items) - 1)

    def update(self, item: int, priority: int) -> None:
        """Change the priority of an existing item (up or down)."""
        slot = self._pos[item]
        old = self._prios[slot]
        if priority == old:
            return
        self._prios[slot] = priority
        if priority < old:
            self._sift_up(slot)
        else:
            self._sift_down(slot)

    def push_or_update(self, item: int, priority: int) -> None:
        """Insert ``item`` or change its priority if already present."""
        if item in self._pos:
            self.update(item, priority)
        else:
            self.push(item, priority)

    def decrement(self, item: int, by: int = 1) -> None:
        """Decrease the priority of ``item`` by ``by`` (the ``d_ext -= 1``
        operation of Algorithm 1, line 20)."""
        self.update(item, self.priority(item) - by)

    def pop_min(self) -> tuple[int, int]:
        """Remove and return ``(item, priority)`` with the smallest
        priority; ties broken by the heap's arrangement."""
        items, prios = self._items, self._prios
        if not items:
            raise IndexError("pop from empty heap")
        top_item = items[0]
        top_prio = prios[0]
        last_item = items.pop()
        last_prio = prios.pop()
        del self._pos[top_item]
        if items:
            items[0] = last_item
            prios[0] = last_prio
            self._sift_down(0)
        return top_item, top_prio

    def peek_min(self) -> tuple[int, int]:
        """Return ``(item, priority)`` at the top without removing it."""
        if not self._items:
            raise IndexError("peek on empty heap")
        return self._items[0], self._prios[0]

    def remove(self, item: int) -> None:
        """Delete ``item`` from the heap; raises ``KeyError`` if absent."""
        items, prios = self._items, self._prios
        slot = self._pos.pop(item)
        last_item = items.pop()
        last_prio = prios.pop()
        if slot < len(items):
            # The last entry fills the vacated slot; restore heap order.
            items[slot] = last_item
            prios[slot] = last_prio
            self._sift_up(slot)
            self._sift_down(slot)

    def discard(self, item: int) -> None:
        """Delete ``item`` if present; no-op otherwise."""
        if item in self._pos:
            self.remove(item)

    def clear(self) -> None:
        """Remove all items."""
        self._items.clear()
        self._prios.clear()
        self._pos.clear()

    # -- internal sifting --------------------------------------------------

    def _sift_up(self, slot: int) -> None:
        items, prios, pos = self._items, self._prios, self._pos
        item = items[slot]
        prio = prios[slot]
        while slot > 0:
            parent = (slot - 1) >> 1
            if prio < prios[parent]:
                moved = items[parent]
                items[slot] = moved
                prios[slot] = prios[parent]
                pos[moved] = slot
                slot = parent
            else:
                break
        items[slot] = item
        prios[slot] = prio
        pos[item] = slot

    def _sift_down(self, slot: int) -> None:
        items, prios, pos = self._items, self._prios, self._pos
        n = len(prios)
        item = items[slot]
        prio = prios[slot]
        while True:
            child = 2 * slot + 1
            if child >= n:
                break
            right = child + 1
            if right < n and prios[right] < prios[child]:
                child = right
            if prios[child] < prio:
                moved = items[child]
                items[slot] = moved
                prios[slot] = prios[child]
                pos[moved] = slot
                slot = child
            else:
                break
        items[slot] = item
        prios[slot] = prio
        pos[item] = slot

    def _check_invariants(self) -> None:
        """Validate heap order and position table (used by tests)."""
        n = len(self._items)
        assert len(self._prios) == n
        assert len(self._pos) == n
        for slot in range(1, n):
            parent = (slot - 1) >> 1
            assert self._prios[parent] <= self._prios[slot], "heap order"
        for item, slot in self._pos.items():
            assert self._items[slot] == item, "position table"
