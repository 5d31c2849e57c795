"""Low-level data structures used by the in-memory partitioning phase.

The paper's Section 4.2 enumerates the structures an efficient HEP
implementation needs: dense bitsets for the core set ``C`` and secondary
sets ``S_i``, and a binary min-heap with a vertex-id lookup table so that
``d_ext`` updates are ``O(log |V|)``.  The heap is implemented here once
and reused by NE, NE++, SNE, DNE and METIS's initial partitioning;
:class:`PackedBitset` is the bit-packed set the out-of-core metrics pass
keeps its per-partition vertex covers in.
"""

from repro._ds.bitset import PackedBitset
from repro._ds.indexed_heap import IndexedMinHeap

__all__ = ["PackedBitset", "IndexedMinHeap"]
