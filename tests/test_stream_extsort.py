"""External sort: bounded-memory degree ordering of edge files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph import (
    generators,
    read_binary_edgelist,
    write_binary_edgelist,
    write_text_edgelist,
)
from repro.graph.ordering import edge_order
from repro.partition import HdrfPartitioner
from repro.runtime import make_job, run_job
from repro.stream import BinaryFileEdgeSource, external_sort_edges
from strategies import graphs


@pytest.fixture(scope="module")
def skewed_graph():
    return generators.chung_lu(300, mean_degree=6, exponent=2.2, seed=5)


class TestMatchesEdgeOrder:
    """The output's natural order must realize edge_order exactly."""

    @pytest.mark.parametrize("order", ["degree", "adversarial"])
    @pytest.mark.parametrize("chunk_size", [7, 64, 100000])
    def test_orders_match(self, skewed_graph, tmp_path, order, chunk_size):
        src = tmp_path / "g.bin"
        out = tmp_path / f"{order}-{chunk_size}.bin"
        write_binary_edgelist(skewed_graph, src)
        result = external_sort_edges(
            src, out, order=order, chunk_size=chunk_size
        )
        assert result.num_edges == skewed_graph.num_edges
        expected = skewed_graph.edges[edge_order(skewed_graph, order)]
        got = read_binary_edgelist(out)
        assert np.array_equal(got.edges, expected)

    @settings(max_examples=15, deadline=None)
    @given(
        graph=graphs(min_edges=1, max_edges=80, max_vertices=20),
        chunk_size=st.integers(min_value=1, max_value=32),
    )
    def test_property_degree_order(self, graph, tmp_path_factory, chunk_size):
        tmp = tmp_path_factory.mktemp("extsort-prop")
        out = tmp / "sorted.bin"
        external_sort_edges(graph, out, order="degree", chunk_size=chunk_size)
        expected = graph.edges[edge_order(graph, "degree")]
        got = np.vstack(
            [c.pairs for c in BinaryFileEdgeSource(out, 1024)]
        ) if expected.size else np.empty((0, 2), dtype=np.int64)
        assert np.array_equal(got, expected)

    def test_small_chunks_force_merge(self, skewed_graph, tmp_path):
        src = tmp_path / "g.bin"
        out = tmp_path / "merged.bin"
        write_binary_edgelist(skewed_graph, src)
        result = external_sort_edges(src, out, order="degree", chunk_size=50)
        assert result.num_runs > 1  # genuinely exercised the k-way merge

    def test_run_count_beyond_open_file_cap(
        self, skewed_graph, tmp_path, monkeypatch
    ):
        """Regression: more runs than the fd cap triggers the multi-level
        merge instead of holding every run file open at once."""
        from repro.stream import extsort as mod

        monkeypatch.setattr(mod, "MAX_OPEN_RUNS", 4)
        src = tmp_path / "g.bin"
        out = tmp_path / "collapsed.bin"
        write_binary_edgelist(skewed_graph, src)
        result = external_sort_edges(src, out, order="degree", chunk_size=25)
        assert result.num_runs > 16  # several collapse levels
        expected = skewed_graph.edges[edge_order(skewed_graph, "degree")]
        assert np.array_equal(read_binary_edgelist(out).edges, expected)

    def test_shuffled_source_same_tie_break(self, skewed_graph, tmp_path):
        """Regression: a reordered chunk source must still produce the
        canonical (key, eid) order, not the arrival order of ties."""
        src = tmp_path / "g.bin"
        out = tmp_path / "from-shuffled.bin"
        write_binary_edgelist(skewed_graph, src)
        shuffled = BinaryFileEdgeSource(src, 50, order="shuffled", seed=3)
        external_sort_edges(shuffled, out, order="degree", chunk_size=50)
        expected = skewed_graph.edges[edge_order(skewed_graph, "degree")]
        assert np.array_equal(read_binary_edgelist(out).edges, expected)

    def test_text_source_and_natural_reencode(self, skewed_graph, tmp_path):
        src = tmp_path / "g.txt"
        out = tmp_path / "copy.bin"
        write_text_edgelist(skewed_graph, src)
        result = external_sort_edges(src, out, order="natural", chunk_size=77)
        assert result.num_runs == 0
        got = read_binary_edgelist(out)
        assert np.array_equal(got.edges, skewed_graph.edges)


class TestFeedsDrivers:
    def test_degree_ordered_file_streams_like_reordered_graph(
        self, skewed_graph, tmp_path
    ):
        """A sorted file fed to the OOC driver equals HDRF on the
        in-memory degree-reordered graph — degree-aware ordering is now
        available without ever materializing the edge list."""
        from repro.graph.ordering import reorder_edges

        out = tmp_path / "deg.bin"
        external_sort_edges(skewed_graph, out, order="degree", chunk_size=64)
        reordered = reorder_edges(skewed_graph, edge_order(skewed_graph, "degree"))
        expected = HdrfPartitioner().partition(reordered, 4)
        result = run_job(make_job("HDRF", out, 4, chunk_size=64))
        assert np.array_equal(result.parts, expected.parts)


class TestShardedOutput:
    """``num_shards`` lands the sorted stream pre-sharded (manifest + K)."""

    @pytest.mark.parametrize("compression", [None, "zlib"])
    @pytest.mark.parametrize("order", ["natural", "degree"])
    def test_sharded_equals_flat(
        self, skewed_graph, tmp_path, order, compression
    ):
        from repro.stream import ShardedEdgeSource

        flat = tmp_path / "flat.bin"
        external_sort_edges(skewed_graph, flat, order=order, chunk_size=64)
        result = external_sort_edges(
            skewed_graph, tmp_path / "sharded.manifest.json", order=order,
            chunk_size=64, num_shards=3, compression=compression,
        )
        assert result.num_shards == 3
        assert result.path.name == "sharded.manifest.json"
        expected = np.vstack([c.pairs for c in BinaryFileEdgeSource(flat, 97)])
        got = np.vstack(
            [c.pairs for c in ShardedEdgeSource(result.path, 97)]
        )
        assert np.array_equal(got, expected)

    def test_sharded_output_feeds_driver(self, skewed_graph, tmp_path):
        result = external_sort_edges(
            skewed_graph, tmp_path / "deg.manifest.json", order="degree",
            chunk_size=64, num_shards=4,
        )
        flat = tmp_path / "deg.bin"
        external_sort_edges(skewed_graph, flat, order="degree", chunk_size=64)
        expected = run_job(make_job("HDRF", flat, 4, chunk_size=64))
        got = run_job(make_job("HDRF", str(result.path), 4, chunk_size=64))
        assert np.array_equal(got.parts, expected.parts)

    def test_manifest_records_universe(self, skewed_graph, tmp_path):
        from repro.stream import read_shard_manifest

        result = external_sort_edges(
            skewed_graph, tmp_path / "g.manifest.json", order="natural",
            num_shards=2,
        )
        manifest = read_shard_manifest(result.path)
        assert manifest.num_vertices == skewed_graph.num_vertices

    def test_compression_without_shards_rejected(self, skewed_graph, tmp_path):
        with pytest.raises(ConfigurationError):
            external_sort_edges(
                skewed_graph, tmp_path / "x.bin", compression="zlib"
            )

    def test_bad_shard_count_rejected(self, skewed_graph, tmp_path):
        with pytest.raises(ConfigurationError):
            external_sort_edges(
                skewed_graph, tmp_path / "x.manifest.json", num_shards=0
            )


class TestErrors:
    def test_unsupported_order(self, skewed_graph, tmp_path):
        with pytest.raises(ConfigurationError):
            external_sort_edges(skewed_graph, tmp_path / "x.bin", order="bfs")

    def test_bad_chunk_size(self, skewed_graph, tmp_path):
        with pytest.raises(ConfigurationError):
            external_sort_edges(
                skewed_graph, tmp_path / "x.bin", chunk_size=0
            )

    @pytest.mark.parametrize("order", ["natural", "degree"])
    def test_in_place_sort_rejected(self, skewed_graph, tmp_path, order):
        """Regression: sorting a file onto itself must not destroy it."""
        src = tmp_path / "g.bin"
        write_binary_edgelist(skewed_graph, src)
        size = src.stat().st_size
        with pytest.raises(ConfigurationError):
            external_sort_edges(src, src, order=order)
        assert src.stat().st_size == size  # input untouched

    def test_failed_sort_preserves_previous_output(
        self, skewed_graph, tmp_path
    ):
        """Regression: the output is opened lazily, so a sort failing
        during run generation must not truncate a pre-existing file."""
        from repro.errors import GraphFormatError
        from repro.stream import EdgeChunkSource, InMemoryEdgeSource

        class FlakySource(EdgeChunkSource):
            """Counting pass succeeds; the second sweep blows up."""

            def __init__(self, graph):
                self.inner = InMemoryEdgeSource(graph, 64)
                self.chunk_size = 64
                self.passes = 0

            def __iter__(self):
                self.passes += 1
                if self.passes > 1:
                    raise GraphFormatError("disk went away")
                yield from self.inner

        out = tmp_path / "out.bin"
        external_sort_edges(skewed_graph, out, order="degree", chunk_size=64)
        before = out.read_bytes()
        assert before  # a previous successful sort exists
        with pytest.raises(GraphFormatError, match="disk went away"):
            external_sort_edges(
                FlakySource(skewed_graph), out, order="degree", chunk_size=64
            )
        assert out.read_bytes() == before  # prior output untouched
