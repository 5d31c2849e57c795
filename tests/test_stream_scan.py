"""Tests for the scan layer: bugfixes, cover blocks, quality reports.

Two load-bearing properties:

* **masking** — ``chunked_quality`` must ignore ``UNASSIGNED`` (-1)
  edges instead of wrapping them into partition ``k - 1``, and
* **one cover kernel** — the bool cover block (optionally column-blocked
  under a byte budget) that ``chunked_quality`` and ``cover_matrix``
  mark with ``mark_cover`` holds exactly the ``(part, vertex)`` pairs an
  independent ``np.unique`` over the assigned edges finds.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import graphs

from repro.errors import ConfigurationError, GraphFormatError
from repro.graph.edgelist import write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.metrics import streamed_quality_report
from repro.partition.base import PartitionAssignment
from repro.runtime import make_job, run_job
from repro.stream import (
    InMemoryEdgeSource,
    chunked_quality,
    open_edge_source,
    plan_cover_blocks,
    scan_source,
    write_sharded_edges,
)
from repro.stream.reader import EdgeChunk, EdgeChunkSource
from repro.stream.scan import MAX_COVER_SWEEPS, cover_nbytes


@pytest.fixture(scope="module")
def graph():
    return chung_lu(350, mean_degree=7, exponent=2.1, seed=11, name="scan")


@pytest.fixture(scope="module")
def binary(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("scan-bin") / "g.bin"
    write_binary_edgelist(graph, out)
    return out


class _DeclaredSource(EdgeChunkSource):
    """In-memory chunk source with an arbitrary declared universe."""

    def __init__(self, pairs, declared):
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.declared = declared
        self.chunk_size = 4

    def __iter__(self):
        for start in range(0, self.pairs.shape[0], self.chunk_size):
            block = self.pairs[start : start + self.chunk_size]
            yield EdgeChunk(
                pairs=block,
                eids=np.arange(start, start + block.shape[0], dtype=np.int64),
            )

    @property
    def num_vertices(self):
        return self.declared


def _brute_force_quality(graph, k, parts):
    """First-principles rf/balance over assigned edges only."""
    assigned = parts >= 0
    replicas = 0
    for p in range(k):
        sel = graph.edges[assigned & (parts == p)]
        replicas += np.unique(sel).size
    covered = int((graph.degrees > 0).sum())
    rf = replicas / covered if covered else 0.0
    sizes = np.bincount(parts[assigned], minlength=k)
    balance = sizes.max() / (graph.num_edges / k)
    return float(rf), float(balance)


class TestScanBugfixes:
    def test_unassigned_edges_are_masked(self, graph, binary):
        """Regression: -1 entries must not wrap into partition k - 1."""
        k = 4
        rng = np.random.default_rng(3)
        parts = rng.integers(0, k, size=graph.num_edges).astype(np.int32)
        parts[rng.random(graph.num_edges) < 0.4] = -1
        stats = scan_source(open_edge_source(binary, 64))
        rf, balance = chunked_quality(
            open_edge_source(binary, 64), stats, k, parts
        )
        expect_rf, expect_balance = _brute_force_quality(graph, k, parts)
        assert rf == pytest.approx(expect_rf, abs=0)
        assert balance == pytest.approx(expect_balance, abs=0)

    def test_all_unassigned_reports_zero(self, graph, binary):
        """With nothing assigned, nothing is replicated or loaded."""
        stats = scan_source(open_edge_source(binary, 64))
        parts = np.full(graph.num_edges, -1, dtype=np.int32)
        rf, balance = chunked_quality(
            open_edge_source(binary, 64), stats, 4, parts
        )
        assert rf == 0.0
        assert balance == 0.0

    def test_empty_source_quality(self, tmp_path):
        """Regression: an empty stream must not divide by zero."""
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        stats = scan_source(open_edge_source(path, 16))
        assert stats.num_edges == 0
        rf, balance = chunked_quality(
            open_edge_source(path, 16), stats, 4, np.empty(0, np.int32)
        )
        assert (rf, balance) == (0.0, 1.0)

    def test_declared_universe_too_small_raises(self):
        """Regression: declared < observed is corrupt, not ignorable."""
        src = _DeclaredSource([[0, 1], [1, 9]], declared=5)
        with pytest.raises(GraphFormatError, match="too small"):
            scan_source(src)

    def test_declared_universe_grows_degrees(self):
        """Pinned: declared > observed keeps trailing isolated vertices."""
        src = _DeclaredSource([[0, 1]], declared=7)
        stats = scan_source(src)
        assert stats.num_vertices == 7
        assert stats.degrees.shape == (7,)
        assert stats.degrees.sum() == 2

    def test_manifest_declaring_too_few_vertices_raises(
        self, graph, tmp_path
    ):
        manifest = write_sharded_edges(
            graph, tmp_path / "bad.manifest.json", num_shards=2
        )
        data = json.loads(manifest.path.read_text())
        data["num_vertices"] = 3
        manifest.path.write_text(json.dumps(data))
        with pytest.raises(GraphFormatError, match="too small"):
            scan_source(open_edge_source(manifest.path, 64))


def _reference_cover_keys(edges, parts, n):
    """Sorted ``p * n + v`` of every covered (part, vertex) pair."""
    assigned = parts >= 0
    p = parts[assigned].astype(np.int64) * n
    return np.unique(np.concatenate(
        [p + edges[assigned, 0], p + edges[assigned, 1]]
    ))


class TestPackedCover:
    """The metrics pass's cover blocks: planning and blocked ≡ unblocked."""

    def test_blocked_counts_match_full_cover(self, graph, binary):
        k = 4
        rng = np.random.default_rng(5)
        parts = rng.integers(-1, k, size=graph.num_edges).astype(np.int32)
        stats = scan_source(open_edge_source(binary, 64))
        full = chunked_quality(open_edge_source(binary, 64), stats, k, parts)
        for budget in (1, 16, 64, 10**9):
            blocked = chunked_quality(
                open_edge_source(binary, 64), stats, k, parts,
                memory_budget=budget,
            )
            assert blocked == full
            n = stats.num_vertices
            cap = k * -(-n // MAX_COVER_SWEEPS)
            for lo, hi in plan_cover_blocks(n, k, budget):
                assert cover_nbytes(hi - lo, k) <= max(budget, cap)

    def test_plan_cover_blocks_shapes(self):
        assert plan_cover_blocks(0, 4) == []
        assert plan_cover_blocks(100, 4) == [(0, 100)]
        assert plan_cover_blocks(100, 4, memory_budget=10**9) == [(0, 100)]
        blocks = plan_cover_blocks(100, 4, memory_budget=8)
        assert blocks[0] == (0, 2)  # 8 // 4 one-byte columns
        assert blocks[-1][1] == 100
        assert all(b[0] == a[1] for a, b in zip(blocks, blocks[1:]))
        with pytest.raises(ConfigurationError):
            plan_cover_blocks(10, 0)

    def test_plan_cover_blocks_caps_sweeps(self):
        """A pathological budget must not schedule thousands of re-reads."""
        blocks = plan_cover_blocks(10_000_000, 128, memory_budget=4096)
        assert len(blocks) <= MAX_COVER_SWEEPS
        assert blocks[0][0] == 0 and blocks[-1][1] == 10_000_000


@settings(max_examples=60)
@given(
    graph=graphs(max_edges=80, max_vertices=40),
    k=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
    chunk_size=st.integers(min_value=1, max_value=100),
    budget=st.sampled_from(["none", "one", "k", "all-but-one", "huge"]),
)
def test_cover_kernel_matches_unique_reference(
    graph, k, seed, chunk_size, budget
):
    """``chunked_quality`` and ``cover_matrix`` ≡ ``np.unique`` reference.

    Parts include -1, and the budgets cover one block, one-vertex
    blocks up to the sweep cap, and a budget one byte short of the
    whole ``k * n`` block.
    """
    n, m = graph.num_vertices, graph.num_edges
    parts = np.random.default_rng(seed).integers(-1, k, size=m)
    parts = parts.astype(np.int32)
    keys = _reference_cover_keys(graph.edges, parts, n)
    memory_budget = {
        "none": None, "one": 1, "k": k, "all-but-one": k * n - 1,
        "huge": 10**9,
    }[budget]

    cover = PartitionAssignment(graph, k, parts).cover_matrix()
    assert cover.shape == (k, n)
    assert np.array_equal(np.flatnonzero(cover), keys)

    source = InMemoryEdgeSource(graph, chunk_size)
    stats = scan_source(source)
    rf, balance = chunked_quality(source, stats, k, parts, memory_budget)
    covered = int((graph.degrees > 0).sum())
    assert rf == keys.size / covered
    sizes = np.bincount(parts[parts >= 0], minlength=k)
    assert balance == sizes.max() / (m / k)


class TestStreamedQualityReport:
    def test_matches_in_memory_metrics(self, graph, binary):
        result = run_job(make_job("HDRF", binary, 4, chunk_size=64))
        report = streamed_quality_report(binary, result.parts, 4)
        assert report.replication_factor == result.replication_factor
        assert report.edge_balance == result.edge_balance
        assert report.num_edges == graph.num_edges
        assert report.num_unassigned == 0
        assert report.row()["RF"] == round(result.replication_factor, 4)

    def test_validation(self, binary):
        with pytest.raises(ConfigurationError, match="shape"):
            streamed_quality_report(binary, np.zeros(3, np.int32), 4)
        with pytest.raises(ConfigurationError, match="k="):
            stats = scan_source(open_edge_source(binary, 64))
            streamed_quality_report(
                binary, np.full(stats.num_edges, 7, np.int32), 4
            )
