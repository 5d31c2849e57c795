"""Low-level data structures used by the in-memory partitioning phase.

The paper's Section 4.2 enumerates the structures an efficient HEP
implementation needs: dense bitsets for the core set ``C`` and secondary
sets ``S_i``, and a binary min-heap with a vertex-id lookup table so that
``d_ext`` updates are ``O(log |V|)``.  The heap is implemented here once
and reused by NE, NE++, SNE, DNE and METIS's initial partitioning; the
flag sets are plain numpy ``uint8``/bool rows kept by their owners
(NE++'s ``core`` and ``secondary``, the streaming state's replicas).
"""

from repro._ds.indexed_heap import IndexedMinHeap

__all__ = ["IndexedMinHeap"]
