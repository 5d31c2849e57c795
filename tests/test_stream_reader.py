"""Chunked edge sources: bounded blocks, restartability, orderings, prefetch."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, GraphFormatError
from repro.graph import Graph, write_binary_edgelist, write_text_edgelist
from repro.stream import (
    BinaryFileEdgeSource,
    InMemoryEdgeSource,
    PrefetchingEdgeSource,
    TextFileEdgeSource,
    open_edge_source,
)


@pytest.fixture()
def graph():
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)], num_vertices=6
    )


def _collect(source):
    pairs, eids = [], []
    for chunk in source:
        assert chunk.num_edges <= source.chunk_size
        pairs.append(chunk.pairs)
        eids.append(chunk.eids)
    return np.vstack(pairs), np.concatenate(eids)


class TestInMemorySource:
    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 100])
    def test_natural_order_covers_stream(self, graph, chunk_size):
        src = InMemoryEdgeSource(graph, chunk_size)
        pairs, eids = _collect(src)
        assert np.array_equal(pairs, graph.edges)
        assert np.array_equal(eids, np.arange(graph.num_edges))

    def test_restartable(self, graph):
        src = InMemoryEdgeSource(graph, 3)
        a = _collect(src)
        b = _collect(src)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("order", ["random", "degree", "bfs", "adversarial"])
    def test_orderings_permute_but_cover(self, graph, order):
        src = InMemoryEdgeSource(graph, 2, order=order, seed=3)
        pairs, eids = _collect(src)
        assert sorted(eids.tolist()) == list(range(graph.num_edges))
        # Every yielded pair is the edge its eid names.
        assert np.array_equal(pairs, graph.edges[eids])

    def test_universe_reported(self, graph):
        src = InMemoryEdgeSource(graph, 4)
        assert src.num_vertices == 6
        assert src.num_edges == graph.num_edges

    def test_unknown_order_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            InMemoryEdgeSource(graph, 4, order="sorted-by-vibes")

    def test_zero_chunk_size_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            InMemoryEdgeSource(graph, 0)


class TestFileSources:
    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    def test_binary_matches_writer(self, graph, tmp_path, chunk_size):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        src = BinaryFileEdgeSource(path, chunk_size)
        pairs, eids = _collect(src)
        assert np.array_equal(pairs, graph.edges)
        assert np.array_equal(eids, np.arange(graph.num_edges))
        assert src.num_edges == graph.num_edges

    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    def test_text_matches_writer(self, graph, tmp_path, chunk_size):
        path = tmp_path / "g.txt"
        write_text_edgelist(graph, path)
        pairs, eids = _collect(TextFileEdgeSource(path, chunk_size))
        assert np.array_equal(pairs, graph.edges)
        assert np.array_equal(eids, np.arange(graph.num_edges))

    def test_text_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n0 1\n\n1 2\n# trailing\n2 0\n")
        pairs, eids = _collect(TextFileEdgeSource(path, 2))
        assert pairs.tolist() == [[0, 1], [1, 2], [2, 0]]
        assert eids.tolist() == [0, 1, 2]

    def test_binary_shuffled_covers_stream(self, graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        src = BinaryFileEdgeSource(path, 2, order="shuffled", seed=1)
        pairs, eids = _collect(src)
        assert sorted(eids.tolist()) == list(range(graph.num_edges))
        assert np.array_equal(pairs, graph.edges[eids])

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n2 2\n")
        with pytest.raises(GraphFormatError):
            _collect(TextFileEdgeSource(path, 10))

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"\x00" * 12)  # not a multiple of 8
        with pytest.raises(GraphFormatError):
            BinaryFileEdgeSource(path, 10)

    def test_negative_id_rejected_with_lineno(self, tmp_path):
        """Regression: the in-memory Graph rejects negatives; the text
        source must too, instead of negative-indexing degree arrays."""
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n-3 4\n")
        with pytest.raises(GraphFormatError, match=r"g\.txt:3: negative"):
            _collect(TextFileEdgeSource(path, 10))

    def test_binary_truncated_before_iteration(self, graph, tmp_path):
        """Regression: the edge count is computed at construction; a file
        truncated before iteration must raise, not yield short chunks."""
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        src = BinaryFileEdgeSource(path, 2)
        with open(path, "r+b") as fh:
            fh.truncate(graph.num_edges * 8 - 16)  # drop two edges
        with pytest.raises(GraphFormatError, match=r"g\.bin"):
            _collect(src)

    def test_binary_truncated_to_odd_tail(self, graph, tmp_path):
        """An odd-length tail must raise GraphFormatError naming the
        file, not a bare ValueError out of reshape."""
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        src = BinaryFileEdgeSource(path, 1000)
        with open(path, "r+b") as fh:
            fh.truncate(graph.num_edges * 8 - 4)  # half an edge
        with pytest.raises(GraphFormatError, match=r"g\.bin"):
            _collect(src)


class TestMultiPassReiteration:
    """Restreaming's contract: every source re-reads identically.

    Multi-pass algorithms (restreaming, and the pipeline's repeated
    counting/splitting/metrics sweeps) require that iterating a source
    N times yields the same chunk sequence each time — from text,
    binary and in-memory sources alike.
    """

    def _passes(self, source, n=3):
        return [_collect(source) for _ in range(n)]

    def _assert_all_equal(self, passes):
        first_pairs, first_eids = passes[0]
        for pairs, eids in passes[1:]:
            assert np.array_equal(pairs, first_pairs)
            assert np.array_equal(eids, first_eids)

    def test_text_source_three_passes(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        write_text_edgelist(graph, path)
        self._assert_all_equal(self._passes(TextFileEdgeSource(path, 3)))

    def test_binary_source_three_passes(self, graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        self._assert_all_equal(self._passes(BinaryFileEdgeSource(path, 2)))

    def test_binary_shuffled_repasses_identically(self, graph, tmp_path):
        """Seeded shuffle must replay the same permutation every pass."""
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        src = BinaryFileEdgeSource(path, 2, order="shuffled", seed=9)
        self._assert_all_equal(self._passes(src))

    def test_in_memory_source_three_passes(self, graph):
        self._assert_all_equal(self._passes(InMemoryEdgeSource(graph, 3)))

    def test_prefetching_source_three_passes(self, graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        src = PrefetchingEdgeSource(BinaryFileEdgeSource(path, 2), depth=2)
        self._assert_all_equal(self._passes(src))

    def test_interleaved_iterators_do_not_corrupt(self, graph, tmp_path):
        """Two concurrent sweeps over one source must stay independent."""
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        src = BinaryFileEdgeSource(path, 2)
        a, b = iter(src), iter(src)
        got_a = [next(a).pairs, next(a).pairs]
        got_b = [c.pairs for c in b]
        assert np.array_equal(np.vstack(got_b), graph.edges)
        assert np.array_equal(np.vstack(got_a), graph.edges[:4])


class TestPrefetchingSource:
    def test_matches_inner_source(self, graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        inner = BinaryFileEdgeSource(path, 2)
        pairs, eids = _collect(PrefetchingEdgeSource(inner, depth=3))
        assert np.array_equal(pairs, graph.edges)
        assert np.array_equal(eids, np.arange(graph.num_edges))

    def test_wraps_any_source(self, graph):
        src = PrefetchingEdgeSource(InMemoryEdgeSource(graph, 3), depth=1)
        pairs, _ = _collect(src)
        assert np.array_equal(pairs, graph.edges)

    def test_metadata_delegates(self, graph):
        inner = InMemoryEdgeSource(graph, 4)
        src = PrefetchingEdgeSource(inner, depth=2)
        assert src.num_edges == inner.num_edges
        assert src.num_vertices == inner.num_vertices
        assert src.chunk_size == inner.chunk_size
        assert "prefetch" in src.describe()

    def test_propagates_worker_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2 2\n")  # self-loop -> GraphFormatError
        src = PrefetchingEdgeSource(TextFileEdgeSource(path, 1), depth=2)
        with pytest.raises(GraphFormatError):
            _collect(src)

    def test_abandoned_iteration_stops_worker(self, graph, tmp_path):
        """Breaking out mid-stream must not leak a blocked thread."""
        import threading

        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        src = PrefetchingEdgeSource(BinaryFileEdgeSource(path, 1), depth=1)
        before = threading.active_count()
        for _ in range(5):
            for chunk in src:
                break  # abandon immediately
        assert threading.active_count() <= before + 1

    def test_bad_depth_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            PrefetchingEdgeSource(InMemoryEdgeSource(graph, 4), depth=0)


class TestOpenEdgeSource:
    def test_graph_passthrough(self, graph):
        src = open_edge_source(graph, 4)
        assert isinstance(src, InMemoryEdgeSource)

    def test_source_passthrough(self, graph):
        src = InMemoryEdgeSource(graph, 4)
        assert open_edge_source(src) is src

    def test_dataset_name(self):
        src = open_edge_source("LJ", 1024)
        assert isinstance(src, InMemoryEdgeSource)
        assert src.num_edges > 0

    def test_binary_by_suffix(self, graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        assert isinstance(open_edge_source(path, 4), BinaryFileEdgeSource)

    def test_text_fallback(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        write_text_edgelist(graph, path)
        assert isinstance(open_edge_source(path, 4), TextFileEdgeSource)

    def test_missing_path_errors(self):
        with pytest.raises(ConfigurationError):
            open_edge_source("/nonexistent/elsewhere.txt", 4)

    def test_text_reorder_rejected(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        write_text_edgelist(graph, path)
        with pytest.raises(ConfigurationError):
            open_edge_source(path, 4, order="shuffled")


class TestFormatSniffing:
    """Regression: suffix alone used to decide text-vs-binary, so a text
    edge list named ``*.edges`` (the SNAP convention) was parsed as flat
    uint32 pairs and silently partitioned garbage."""

    def test_text_content_with_binary_suffix_rejected(self, graph, tmp_path):
        path = tmp_path / "snap.edges"
        write_text_edgelist(graph, path)
        with pytest.raises(GraphFormatError, match="text"):
            open_edge_source(path, 4)

    def test_binary_content_with_text_suffix_rejected(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        write_binary_edgelist(graph, path)
        with pytest.raises(GraphFormatError, match="binary"):
            open_edge_source(path, 4)

    def test_matching_formats_pass(self, graph, tmp_path):
        bin_path = tmp_path / "g.bin"
        write_binary_edgelist(graph, bin_path)
        txt_path = tmp_path / "g.txt"
        write_text_edgelist(graph, txt_path)
        assert isinstance(open_edge_source(bin_path, 4), BinaryFileEdgeSource)
        assert isinstance(open_edge_source(txt_path, 4), TextFileEdgeSource)

    def test_empty_file_is_ambiguous_and_follows_suffix(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        src = open_edge_source(path, 4)
        assert isinstance(src, BinaryFileEdgeSource)
        assert src.num_edges == 0

    def test_sniffed_garbage_partition_becomes_error(self, graph, tmp_path):
        """The original failure mode end to end: a text file named
        .edges fed to the out-of-core driver must raise, not produce a
        garbage partition."""
        from repro.runtime import make_job, run_job

        path = tmp_path / "snap.edges"
        write_text_edgelist(graph, path)
        with pytest.raises(GraphFormatError):
            run_job(make_job("HDRF", path, 2, chunk_size=4))


class TestPrefetchClose:
    """Regression: PrefetchingEdgeSource.close() mid-iteration must join
    the reader thread (which releases the inner source's handles)."""

    @pytest.fixture()
    def big_file(self, tmp_path):
        n = 600
        g = Graph.from_edges(
            [(i, i + 1) for i in range(n - 1)], num_vertices=n
        )
        path = tmp_path / "chain.bin"
        write_binary_edgelist(g, path)
        return path

    def test_close_joins_reader_thread(self, big_file):
        import threading

        before = set(threading.enumerate())
        src = PrefetchingEdgeSource(
            BinaryFileEdgeSource(big_file, 32), depth=2
        )
        it = iter(src)
        next(it)
        assert any(
            t.name == "edge-chunk-prefetch" for t in threading.enumerate()
        )
        src.close()
        assert set(threading.enumerate()) == before

    def test_resuming_closed_iterator_raises(self, big_file):
        src = PrefetchingEdgeSource(
            BinaryFileEdgeSource(big_file, 16), depth=1
        )
        it = iter(src)
        next(it)
        src.close()
        with pytest.raises(ValueError, match="closed during iteration"):
            for _ in it:
                pass

    def test_fresh_iteration_after_close(self, big_file):
        src = PrefetchingEdgeSource(
            BinaryFileEdgeSource(big_file, 64), depth=2
        )
        expected_pairs, expected_eids = _collect(src)
        it = iter(src)
        next(it)
        src.close()
        pairs, eids = _collect(src)
        assert np.array_equal(pairs, expected_pairs)
        assert np.array_equal(eids, expected_eids)

    def test_close_idempotent_and_base_noop(self, big_file, graph):
        src = PrefetchingEdgeSource(
            BinaryFileEdgeSource(big_file, 16), depth=1
        )
        src.close()
        src.close()
        # Base sources expose close() as a safe no-op.
        InMemoryEdgeSource(graph, 4).close()
        BinaryFileEdgeSource(big_file, 16).close()
