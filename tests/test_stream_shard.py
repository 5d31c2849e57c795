"""Sharded edge files: manifest IO, the sequential reader, equivalence."""

import json
import os
import tempfile
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from repro.errors import ConfigurationError, GraphFormatError
from repro.graph import Graph, generators, write_binary_edgelist
from repro.runtime import make_job, run_job
from repro.stream import (
    BinaryFileEdgeSource,
    InMemoryEdgeSource,
    ShardedEdgeSource,
    ShardWriter,
    open_edge_source,
    read_shard_manifest,
    write_sharded_edges,
)
from strategies import graphs


@pytest.fixture(scope="module")
def skewed_graph():
    return generators.chung_lu(400, mean_degree=6, exponent=2.1, seed=11)


@pytest.fixture()
def small_graph():
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)], num_vertices=6
    )


def _chunks(source):
    return [(c.pairs.copy(), c.eids.copy()) for c in source]


def _assert_same_stream(got, expected):
    assert len(got) == len(expected), "chunk boundaries differ"
    for (gp, ge), (ep, ee) in zip(got, expected):
        assert np.array_equal(np.asarray(gp, dtype=np.int64), ep)
        assert np.array_equal(ge, ee)


class TestManifestIO:
    def test_roundtrip_metadata(self, small_graph, tmp_path):
        manifest = write_sharded_edges(
            small_graph, tmp_path / "g.manifest.json", num_shards=3
        )
        loaded = read_shard_manifest(manifest.path)
        assert loaded.num_edges == small_graph.num_edges
        assert loaded.num_vertices == small_graph.num_vertices
        assert loaded.num_shards == 3
        assert loaded.compression is None
        assert sum(loaded.shard_edges) == loaded.num_edges
        for shard in loaded.shard_paths:
            assert shard.exists()

    def test_suffix_appended_when_missing(self, small_graph, tmp_path):
        manifest = write_sharded_edges(
            small_graph, tmp_path / "plain-name", num_shards=2
        )
        assert manifest.path.name == "plain-name.manifest.json"

    def test_not_a_manifest_rejected(self, tmp_path):
        path = tmp_path / "bogus.manifest.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(GraphFormatError):
            read_shard_manifest(path)

    def test_unreadable_json_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest.json"
        path.write_text("{not json")
        with pytest.raises(GraphFormatError):
            read_shard_manifest(path)

    def test_future_version_rejected(self, small_graph, tmp_path):
        manifest = write_sharded_edges(
            small_graph, tmp_path / "g.manifest.json", num_shards=2
        )
        data = json.loads(manifest.path.read_text())
        data["version"] = 99
        manifest.path.write_text(json.dumps(data))
        with pytest.raises(GraphFormatError, match="version"):
            read_shard_manifest(manifest.path)

    def test_missing_shard_rejected(self, small_graph, tmp_path):
        manifest = write_sharded_edges(
            small_graph, tmp_path / "g.manifest.json", num_shards=2
        )
        manifest.shard_paths[1].unlink()
        with pytest.raises(GraphFormatError, match="missing shard"):
            read_shard_manifest(manifest.path)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_shard_length_mismatch_fails_every_path(
        self, skewed_graph, tmp_path, workers
    ):
        """A shard longer than its manifest entry is one GraphFormatError,
        on the sequential reader and on the worker processes alike."""
        manifest = write_sharded_edges(
            skewed_graph, tmp_path / "g.manifest.json", num_shards=4
        )
        shard = manifest.shard_paths[0]
        with open(shard, "ab") as fh:
            fh.write(np.array([[0, 1]], dtype="<u4").tobytes())
        size = shard.stat().st_size
        with pytest.raises(
            GraphFormatError,
            match=f"shard holds {size} bytes, expected {size - 8}",
        ):
            run_job(make_job("HDRF", str(manifest.path), 4, workers=workers))

    @pytest.mark.parametrize("workers", [0, 2])
    def test_zlib_frame_past_count_fails_every_path(
        self, skewed_graph, tmp_path, workers
    ):
        """A valid zlib frame past a shard's declared edge count is one
        GraphFormatError naming the shard, sequential and in workers."""
        from repro.stream.records import FRAME

        manifest = write_sharded_edges(
            skewed_graph, tmp_path / "z.manifest.json", num_shards=2,
            compression="zlib",
        )
        shard = manifest.shard_paths[0]
        payload = zlib.compress(np.array([[0, 1]], dtype="<u4").tobytes())
        with open(shard, "ab") as fh:
            fh.write(FRAME.pack(len(payload), 1) + payload)
        with pytest.raises(GraphFormatError, match=shard.name):
            run_job(make_job("HDRF", str(manifest.path), 4, workers=workers))

    def test_count_mismatch_rejected(self, small_graph, tmp_path):
        manifest = write_sharded_edges(
            small_graph, tmp_path / "g.manifest.json", num_shards=2
        )
        data = json.loads(manifest.path.read_text())
        data["num_edges"] += 1
        manifest.path.write_text(json.dumps(data))
        with pytest.raises(GraphFormatError, match="num_edges"):
            read_shard_manifest(manifest.path)


class TestShardWriter:
    def test_under_delivery_rejected(self, tmp_path):
        writer = ShardWriter(
            tmp_path / "g.manifest.json", num_edges=10, num_shards=2
        )
        writer.append(np.array([[0, 1], [1, 2]]))
        with pytest.raises(GraphFormatError, match="2 of the declared 10"):
            writer.close()

    def test_over_delivery_rejected(self, tmp_path):
        writer = ShardWriter(
            tmp_path / "g.manifest.json", num_edges=1, num_shards=1
        )
        with pytest.raises(GraphFormatError, match="more than"):
            writer.append(np.array([[0, 1], [1, 2]]))

    def test_negative_id_rejected(self, tmp_path):
        writer = ShardWriter(
            tmp_path / "g.manifest.json", num_edges=1, num_shards=1
        )
        with pytest.raises(GraphFormatError, match="negative"):
            writer.append(np.array([[-1, 2]]))

    def test_oversized_id_rejected(self, tmp_path):
        writer = ShardWriter(
            tmp_path / "g.manifest.json", num_edges=1, num_shards=1
        )
        with pytest.raises(GraphFormatError, match="uint32"):
            writer.append(np.array([[2**32, 2]]))

    def test_more_shards_than_edges(self, tmp_path):
        # 2 edges over 5 shards: trailing shards exist and hold 0 edges.
        with ShardWriter(
            tmp_path / "g.manifest.json", num_edges=2, num_shards=5
        ) as writer:
            writer.append(np.array([[0, 1], [1, 2]]))
        manifest = writer.close()
        assert manifest.num_shards == 5
        assert manifest.shard_edges == (1, 1, 0, 0, 0)
        got = np.vstack([c.pairs for c in ShardedEdgeSource(manifest, 10)])
        assert got.tolist() == [[0, 1], [1, 2]]

    def test_bad_configs_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ShardWriter(tmp_path / "g", num_edges=1, num_shards=0)
        with pytest.raises(ConfigurationError):
            ShardWriter(tmp_path / "g", num_edges=-1, num_shards=1)
        with pytest.raises(ConfigurationError):
            ShardWriter(
                tmp_path / "g", num_edges=1, num_shards=1, compression="lz77"
            )


class TestShardedEdgeSource:
    """Acceptance: sharded read ≡ single-file read, bit for bit."""

    @pytest.mark.parametrize("compression", [None, "zlib"])
    @pytest.mark.parametrize("chunk_size", [1, 3, 64, 10_000])
    def test_identical_to_single_file(
        self, skewed_graph, tmp_path, chunk_size, compression
    ):
        binpath = tmp_path / "g.bin"
        write_binary_edgelist(skewed_graph, binpath)
        manifest = write_sharded_edges(
            binpath, tmp_path / "g.manifest.json", num_shards=4,
            compression=compression, chunk_size=53,
        )
        expected = _chunks(BinaryFileEdgeSource(binpath, chunk_size))
        got = _chunks(ShardedEdgeSource(manifest, chunk_size))
        _assert_same_stream(got, expected)

    def test_restartable_multi_pass(self, skewed_graph, tmp_path):
        manifest = write_sharded_edges(
            skewed_graph, tmp_path / "g.manifest.json", num_shards=3
        )
        src = ShardedEdgeSource(manifest, 97)
        a, b, c = _chunks(src), _chunks(src), _chunks(src)
        _assert_same_stream(a, b)
        _assert_same_stream(a, c)

    def test_metadata(self, skewed_graph, tmp_path):
        manifest = write_sharded_edges(
            skewed_graph, tmp_path / "g.manifest.json", num_shards=2
        )
        src = ShardedEdgeSource(manifest, 64)
        assert src.num_edges == skewed_graph.num_edges
        assert src.num_vertices == skewed_graph.num_vertices
        assert "shards" in src.describe()

    def test_truncated_shard_raises(self, skewed_graph, tmp_path):
        manifest = write_sharded_edges(
            skewed_graph, tmp_path / "g.manifest.json", num_shards=2
        )
        shard = manifest.shard_paths[1]
        shard.write_bytes(shard.read_bytes()[:-8])
        with pytest.raises(GraphFormatError, match=shard.name):
            _chunks(ShardedEdgeSource(manifest, 64))

    def test_truncated_compressed_shard_raises(self, skewed_graph, tmp_path):
        manifest = write_sharded_edges(
            skewed_graph, tmp_path / "g.manifest.json", num_shards=2,
            compression="zlib",
        )
        shard = manifest.shard_paths[0]
        shard.write_bytes(shard.read_bytes()[:-4])
        with pytest.raises(GraphFormatError):
            _chunks(ShardedEdgeSource(manifest, 64))

    def test_abandoned_iteration_reaps_workers(self, skewed_graph, tmp_path):
        """Abandoning a read mid-shard leaves no thread or shard handle."""
        manifest = write_sharded_edges(
            skewed_graph, tmp_path / "g.manifest.json", num_shards=4
        )
        src = ShardedEdgeSource(manifest, 8)
        before = threading.active_count()
        fds_before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            for chunk in src:
                break  # abandon immediately
        assert threading.active_count() <= before + 1
        assert len(os.listdir("/proc/self/fd")) == fds_before

    def test_self_loop_in_shard_rejected(self, tmp_path):
        with ShardWriter(
            tmp_path / "g.manifest.json", num_edges=2, num_shards=1
        ) as writer:
            writer.append(np.array([[0, 1], [2, 2]]))
        with pytest.raises(GraphFormatError, match="self-loop"):
            _chunks(ShardedEdgeSource(writer.close(), 10))

    def test_bad_configs_rejected(self, small_graph, tmp_path):
        manifest = write_sharded_edges(
            small_graph, tmp_path / "g.manifest.json", num_shards=2
        )
        with pytest.raises(ConfigurationError):
            ShardedEdgeSource(manifest, 0)


class TestRoundTripProperty:
    """Hypothesis: export → sharded/compressed ≡ in-memory stream."""

    @settings(max_examples=20, deadline=None)
    @given(
        graph=graphs(min_edges=1, max_edges=60, max_vertices=16),
        chunk_size=st.integers(min_value=1, max_value=64),
        num_shards=st.integers(min_value=1, max_value=5),
        compression=st.sampled_from([None, "zlib"]),
    )
    def test_sharded_roundtrip(self, graph, chunk_size, num_shards, compression):
        expected = _chunks(InMemoryEdgeSource(graph, chunk_size))
        with tempfile.TemporaryDirectory() as tmp:
            manifest = write_sharded_edges(
                graph, Path(tmp) / "g.manifest.json",
                num_shards=num_shards, compression=compression,
                chunk_size=17,
            )
            got = _chunks(ShardedEdgeSource(manifest, chunk_size))
        _assert_same_stream(got, expected)


class TestDriverEquivalence:
    """Acceptance: partitioning from a manifest ≡ the in-memory run."""

    @settings(max_examples=10, deadline=None)
    @given(
        graph=graphs(min_edges=2, max_edges=60, max_vertices=16),
        chunk_size=st.integers(min_value=1, max_value=64),
        num_shards=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=2, max_value=4),
    )
    def test_property_hdrf_sharded_identical(
        self, graph, chunk_size, num_shards, k
    ):
        expected = references.hdrf(graph, k)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = write_sharded_edges(
                graph, Path(tmp) / "g.manifest.json", num_shards=num_shards
            )
            result = run_job(
                make_job("HDRF", str(manifest.path), k, chunk_size=chunk_size)
            )
        assert np.array_equal(result.parts, expected.parts)

    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_hep_over_manifest_identical(
        self, skewed_graph, tmp_path, compression
    ):
        manifest = write_sharded_edges(
            skewed_graph, tmp_path / "g.manifest.json", num_shards=3,
            compression=compression,
        )
        expected = references.hep(skewed_graph, 4, tau=1.0)
        result = run_job(
            make_job("HEP", str(manifest.path), 4, tau=1.0, chunk_size=101)
        )
        assert np.array_equal(result.parts, expected.parts)


class TestOpenEdgeSource:
    def test_manifest_routing(self, small_graph, tmp_path):
        manifest = write_sharded_edges(
            small_graph, tmp_path / "g.manifest.json", num_shards=2
        )
        src = open_edge_source(manifest.path, 4)
        assert isinstance(src, ShardedEdgeSource)
        assert src.num_edges == small_graph.num_edges

    def test_sharded_reorder_rejected(self, small_graph, tmp_path):
        manifest = write_sharded_edges(
            small_graph, tmp_path / "g.manifest.json", num_shards=2
        )
        with pytest.raises(ConfigurationError):
            open_edge_source(manifest.path, 4, order="shuffled")
