"""Record files: the on-disk layout pin and the corrupt-file property.

The pin fixes every record file the stream layer writes for one tiny
graph: the binary edge list, flat and zlib shard sets with their
manifests, raw and zlib spills, and the external sort's flat and
sharded output.  Raw files are compared byte for byte.  Framed files
are compared by their header, their per-frame row counts and their
inflated payloads; the deflate bytes themselves depend on the zlib
build, so they are not pinned.  Expected bytes are built with
``struct`` from the edges, independently of the codec's own constants.

The property cuts a record file at any byte or flips any bit of a zlib
payload: a read then returns exactly the rows written or raises a
:class:`~repro.errors.GraphFormatError` naming the file, never short
rows and never another exception.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import Graph, write_binary_edgelist
from repro.stream import SpillFile, external_sort_edges, write_sharded_edges

#: a tiny graph; vertex 258 spans two bytes, so byte order shows
EDGES = [(3, 4), (0, 1), (0, 2), (1, 2), (0, 3), (2, 258)]

#: ``EDGES`` in degree order: key ``-min(deg u, deg v)``, ties by edge id
DEGREE_ORDER = [(0, 2), (0, 1), (1, 2), (0, 3), (3, 4), (2, 258)]

#: ``(u, v, eid)`` spill records, appended in two blocks
SPILL_BLOCKS = [[(3, 4, 0), (0, 2, 2)], [(2, 258, 5)]]


def _pairs(edges):
    return b"".join(struct.pack("<II", u, v) for u, v in edges)


def _triples(rows):
    return b"".join(struct.pack("<qqq", *row) for row in rows)


def _frames(path, magic):
    """``(row count, inflated payload)`` per frame of a framed file.

    Checks the 8-byte header (magic, version 1, codec 1 = zlib, two
    reserved zero bytes) and that the frame chain ends at end of file.
    """
    data = path.read_bytes()
    assert data[:8] == magic + bytes([1, 1, 0, 0])
    frames, offset = [], 8
    while offset < len(data):
        payload_bytes, rows = struct.unpack_from("<II", data, offset)
        offset += 8
        payload = data[offset:offset + payload_bytes]
        frames.append((rows, zlib.decompress(payload)))
        offset += payload_bytes
    assert offset == len(data)
    return frames


def _manifest_text(stem, compression):
    codec = "null" if compression is None else f'"{compression}"'
    return (
        "{\n"
        '  "format": "repro-sharded-edges",\n'
        '  "version": 1,\n'
        '  "num_edges": 6,\n'
        '  "num_vertices": 259,\n'
        f'  "compression": {codec},\n'
        '  "shards": [\n'
        "    {\n"
        f'      "path": "{stem}.shard-0000.bin",\n'
        '      "num_edges": 3\n'
        "    },\n"
        "    {\n"
        f'      "path": "{stem}.shard-0001.bin",\n'
        '      "num_edges": 3\n'
        "    }\n"
        "  ]\n"
        "}\n"
    )


def _check_shard_set(manifest_path, stem, compression, edges):
    """Two shards of three edges each, written in appends of four edges.

    The first append fills shard 0 and puts one edge in shard 1; the
    second puts the last two in shard 1.  A zlib shard holds one frame
    per part of an append that lands in it.
    """
    assert manifest_path.read_text(encoding="utf-8") == _manifest_text(
        stem, compression
    )
    first = manifest_path.parent / f"{stem}.shard-0000.bin"
    second = manifest_path.parent / f"{stem}.shard-0001.bin"
    if compression is None:
        assert first.read_bytes() == _pairs(edges[:3])
        assert second.read_bytes() == _pairs(edges[3:])
    else:
        assert _frames(first, b"RSHD") == [(3, _pairs(edges[:3]))]
        assert _frames(second, b"RSHD") == [
            (1, _pairs(edges[3:4])),
            (2, _pairs(edges[4:])),
        ]


@pytest.fixture()
def graph():
    return Graph.from_edges(EDGES)


class TestLayoutPin:
    def test_binary_edge_list(self, graph, tmp_path):
        path = tmp_path / "g.bin"
        write_binary_edgelist(graph, path)
        assert path.read_bytes() == _pairs(EDGES)

    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_shard_set(self, graph, tmp_path, compression):
        manifest = write_sharded_edges(
            graph, tmp_path / "g.manifest.json", num_shards=2,
            compression=compression, chunk_size=4,
        )
        _check_shard_set(manifest.path, "g", compression, EDGES)

    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_spill(self, tmp_path, compression):
        path = tmp_path / "h2h.spill"
        with SpillFile(
            path=path, delete=False, compression=compression
        ) as spill:
            for block in SPILL_BLOCKS:
                rows = np.asarray(block, dtype=np.int64)
                spill.append(rows[:, :2], rows[:, 2])
        if compression is None:
            rows = SPILL_BLOCKS[0] + SPILL_BLOCKS[1]
            assert path.read_bytes() == _triples(rows)
        else:
            assert _frames(path, b"RSPL") == [
                (len(block), _triples(block)) for block in SPILL_BLOCKS
            ]

    def test_extsort_flat(self, graph, tmp_path):
        source = tmp_path / "g.bin"
        write_binary_edgelist(graph, source)
        out = tmp_path / "sorted.bin"
        external_sort_edges(source, out, order="degree", chunk_size=4)
        assert out.read_bytes() == _pairs(DEGREE_ORDER)

    @pytest.mark.parametrize("compression", [None, "zlib"])
    def test_extsort_sharded(self, graph, tmp_path, compression):
        source = tmp_path / "g.bin"
        write_binary_edgelist(graph, source)
        result = external_sort_edges(
            source, tmp_path / "s.manifest.json", order="degree",
            chunk_size=4, num_shards=2, compression=compression,
        )
        _check_shard_set(result.path, "s", compression, DEGREE_ORDER)


def _payload_offsets(blob):
    """Byte offsets of every zlib payload byte in a framed file."""
    offsets, offset = [], 8
    while offset < len(blob):
        payload_bytes, _ = struct.unpack_from("<II", blob, offset)
        offset += 8
        offsets.extend(range(offset, offset + payload_bytes))
        offset += payload_bytes
    return offsets


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    """One intact file per kind: ``kind -> (path, format, codec, rows)``.

    Forty rows in appends of 16, so a framed file holds three frames.
    """
    from repro.stream.records import (
        EDGE_PAIRS,
        SPILL_TRIPLES,
        RecordWriter,
    )

    directory = tmp_path_factory.mktemp("records")
    pairs = np.random.default_rng(7).integers(0, 5000, size=(40, 2))
    triples = np.column_stack([pairs, np.arange(40) * 3])
    files = {}
    for kind, fmt, codec, rows in [
        ("flat-shard", EDGE_PAIRS, None, pairs),
        ("zlib-shard", EDGE_PAIRS, "zlib", pairs),
        ("raw-spill", SPILL_TRIPLES, None, triples),
        ("zlib-spill", SPILL_TRIPLES, "zlib", triples),
    ]:
        path = directory / f"{kind}.bin"
        with RecordWriter(path, fmt, codec) as writer:
            for first in range(0, rows.shape[0], 16):
                writer.append(rows[first:first + 16])
        files[kind] = (path, fmt, codec, rows)
    return files


class TestCorruptRecordFiles:
    @settings(max_examples=300)
    @given(
        kind=st.sampled_from(
            ["flat-shard", "zlib-shard", "raw-spill", "zlib-spill"]
        ),
        data=st.data(),
    )
    def test_cut_or_flipped_file_reads_exactly_or_raises(
        self, record_files, kind, data
    ):
        from repro.stream.records import read_records

        path, fmt, codec, rows = record_files[kind]
        blob = path.read_bytes()
        if codec is not None and data.draw(st.booleans(), label="flip"):
            payload = _payload_offsets(blob)
            bit = data.draw(st.integers(0, len(payload) * 8 - 1), label="bit")
            corrupt = bytearray(blob)
            corrupt[payload[bit // 8]] ^= 1 << (bit % 8)
        else:
            cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
            corrupt = blob[:cut]
        target = path.with_name(f"corrupt-{path.name}")
        target.write_bytes(bytes(corrupt))
        try:
            blocks = list(
                read_records(target, fmt, len(rows), codec, chunk_size=7)
            )
        except GraphFormatError as exc:
            assert str(target) in str(exc)
            return
        assert np.array_equal(np.vstack(blocks), rows)
