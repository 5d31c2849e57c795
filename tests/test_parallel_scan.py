"""Tests for the scan layer: bugfixes, packed covers, parallel passes.

Three load-bearing properties:

* **masking** — ``chunked_quality`` must ignore ``UNASSIGNED`` (-1)
  edges instead of wrapping them into partition ``k - 1``,
* **packed covers** — the bit-packed (optionally column-blocked) cover
  reports exactly the metrics the dense sweep did, and
* **parallel ≡ sequential** — any worker count over any shard layout
  produces bit-identical :func:`scan_source` / :func:`chunked_quality`
  results, including partial assignments and empty shards.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import graphs, power_law_graphs

from repro.errors import ConfigurationError, GraphFormatError
from repro.graph.edgelist import write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.metrics import streamed_quality_report
from repro.stream import (
    OutOfCoreHep,
    PackedCover,
    StreamingPartitionerDriver,
    chunked_quality,
    open_edge_source,
    plan_cover_blocks,
    scan_quality,
    scan_source,
    scan_stats,
    supports_parallel_scan,
    write_sharded_edges,
)
from repro.stream.reader import EdgeChunk, EdgeChunkSource
from repro.stream.scan import SourceStats, cover_nbytes


@pytest.fixture(scope="module")
def graph():
    return chung_lu(350, mean_degree=7, exponent=2.1, seed=11, name="scan")


@pytest.fixture(scope="module")
def manifest(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("scan") / "g.manifest.json"
    return write_sharded_edges(graph, out, num_shards=4)


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
        with pytest.raises(GraphFormatError, match="too small"):
            scan_stats(
                manifest.path, open_edge_source(manifest.path, 64), 2, 64
            )


class TestPackedCover:
    def test_cover_memory_is_bits(self):
        cover = PackedCover(8, 0, 1000)
        assert cover.nbytes == 8 * 125  # k * ceil(n / 8): true bits
        assert cover.nbytes == cover_nbytes(1000, 8)

    def test_part_views_share_words(self):
        cover = PackedCover(2, 0, 16)
        parts = np.array([1], dtype=np.int32)
        cover.mark_assignment(
            parts, np.array([[3, 9]]), np.array([0], dtype=np.int64)
        )
        assert sorted(cover.part(1)) == [3, 9]
        assert cover.part(0).count() == 0
        assert cover.count() == 2
        with pytest.raises(IndexError):
            cover.part(2)

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
            for lo, hi in plan_cover_blocks(stats.num_vertices, k, budget):
                assert cover_nbytes(hi - lo, k) <= max(budget, k)

    def test_plan_cover_blocks_shapes(self):
        assert plan_cover_blocks(0, 4) == []
        assert plan_cover_blocks(100, 4) == [(0, 100)]
        assert plan_cover_blocks(100, 4, memory_budget=10**9) == [(0, 100)]
        blocks = plan_cover_blocks(100, 4, memory_budget=8)
        assert blocks[0] == (0, 16)  # (8 // 4) bytes * 8 bits
        assert blocks[-1][1] == 100
        assert all(b[0] == a[1] for a, b in zip(blocks, blocks[1:]))
        with pytest.raises(ConfigurationError):
            plan_cover_blocks(10, 0)

    def test_plan_cover_blocks_caps_sweeps(self):
        """A pathological budget must not schedule thousands of re-reads."""
        from repro.stream.scan import MAX_COVER_SWEEPS

        blocks = plan_cover_blocks(10_000_000, 128, memory_budget=4096)
        assert len(blocks) <= MAX_COVER_SWEEPS
        assert blocks[0][0] == 0 and blocks[-1][1] == 10_000_000


class TestSupportsParallelScan:
    def test_paths(self, manifest, binary, tmp_path):
        assert supports_parallel_scan(manifest.path)
        assert supports_parallel_scan(str(binary))
        text = tmp_path / "g.txt"
        text.write_text("0 1\n")
        assert not supports_parallel_scan(text)
        assert not supports_parallel_scan(tmp_path / "missing.bin")
        assert not supports_parallel_scan("WI")

    def test_front_door_falls_back(self, graph):
        """In-memory sources use the sequential sweep whatever workers says."""
        src = open_edge_source(graph, 64)
        stats = scan_stats(graph, src, workers=4)
        seq = scan_source(open_edge_source(graph, 64))
        assert stats.num_vertices == seq.num_vertices
        assert np.array_equal(stats.degrees, seq.degrees)


@pytest.mark.slow
class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3, 6])
    def test_counting_pass_bit_identical(
        self, graph, manifest, binary, workers
    ):
        for source in (manifest.path, binary):
            seq = scan_source(open_edge_source(source, 64))
            par = scan_stats(source, open_edge_source(source, 64), workers, 64)
            assert par.num_vertices == seq.num_vertices
            assert par.num_edges == seq.num_edges
            assert par.degrees.dtype == seq.degrees.dtype
            assert np.array_equal(par.degrees, seq.degrees)

    @pytest.mark.parametrize("workers,budget", [(2, None), (4, None), (3, 32)])
    def test_quality_pass_bit_identical(
        self, graph, manifest, binary, workers, budget
    ):
        k = 4
        rng = np.random.default_rng(workers)
        parts = rng.integers(-1, k, size=graph.num_edges).astype(np.int32)
        for source in (manifest.path, binary):
            stats = scan_source(open_edge_source(source, 64))
            seq = chunked_quality(
                open_edge_source(source, 64), stats, k, parts,
                memory_budget=budget,
            )
            par = scan_quality(
                source, open_edge_source(source, 64), stats, k, parts,
                workers, 64, memory_budget=budget,
            )
            assert par == seq  # bit-identical floats, not approx

    def test_driver_metrics_workers_identical(self, binary):
        base = StreamingPartitionerDriver("HDRF", chunk_size=64)
        fan = StreamingPartitionerDriver(
            "HDRF", chunk_size=64, metrics_workers=2
        )
        a = base.partition(binary, 4)
        b = fan.partition(binary, 4)
        assert np.array_equal(a.parts, b.parts)
        assert a.replication_factor == b.replication_factor
        assert a.edge_balance == b.edge_balance

    def test_hep_metrics_workers_identical(self, binary):
        a = OutOfCoreHep(tau=1.0, chunk_size=64).partition(binary, 4)
        b = OutOfCoreHep(
            tau=1.0, chunk_size=64, metrics_workers=2
        ).partition(binary, 4)
        assert np.array_equal(a.parts, b.parts)
        assert a.replication_factor == b.replication_factor
        assert a.edge_balance == b.edge_balance

    def test_truncated_shard_surfaces_format_error(self, graph, tmp_path):
        manifest = write_sharded_edges(
            graph, tmp_path / "t.manifest.json", num_shards=3
        )
        shard = manifest.shard_paths[1]
        shard.write_bytes(shard.read_bytes()[:-8])
        with pytest.raises(GraphFormatError, match="shard"):
            scan_stats(
                manifest.path, open_edge_source(manifest.path, 64), 2, 64
            )


class TestStreamedQualityReport:
    def test_matches_in_memory_metrics(self, graph, binary):
        result = StreamingPartitionerDriver("HDRF", chunk_size=64).partition(
            binary, 4
        )
        report = streamed_quality_report(binary, result.parts, 4, workers=2)
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


@pytest.mark.slow
@settings(max_examples=8, deadline=None)
@given(
    graph=power_law_graphs(max_vertices=60),
    workers=st.sampled_from([1, 2, 3, 5]),
    num_shards=st.integers(min_value=1, max_value=6),
    budget=st.sampled_from([None, 8, 64]),
    drop=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_parallel_scan_equivalence_property(
    graph, workers, num_shards, budget, drop, seed
):
    """Property: any shard layout x worker count x partial assignment —
    the parallel counting and metrics passes equal the sequential ones
    bit for bit (workers may own zero shards; floats compare with ==)."""
    k = 4
    rng = np.random.default_rng(seed)
    parts = rng.integers(0, k, size=graph.num_edges).astype(np.int32)
    parts[rng.random(graph.num_edges) < drop] = -1
    with tempfile.TemporaryDirectory(prefix="pscan-prop-") as tmp:
        manifest = write_sharded_edges(
            graph, Path(tmp) / "g.manifest.json", num_shards=num_shards
        )
        seq_stats = scan_source(open_edge_source(manifest.path, 16))
        par_stats = scan_stats(
            manifest.path, open_edge_source(manifest.path, 16), workers, 16
        )
        assert par_stats.num_vertices == seq_stats.num_vertices
        assert par_stats.num_edges == seq_stats.num_edges
        assert np.array_equal(par_stats.degrees, seq_stats.degrees)
        seq_q = chunked_quality(
            open_edge_source(manifest.path, 16), seq_stats, k, parts,
            memory_budget=budget,
        )
        par_q = scan_quality(
            manifest.path, open_edge_source(manifest.path, 16), seq_stats,
            k, parts, workers, 16, memory_budget=budget,
        )
        assert par_q == seq_q
