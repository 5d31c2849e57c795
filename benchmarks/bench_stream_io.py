"""Bench: in-memory HEP vs out-of-core HEP (wall-clock and peak heap).

The out-of-core pipeline trades extra passes over the edge file for a
bounded working set.  This bench measures both sides of that trade on a
file-backed R-MAT graph — the same HEP job on the loaded Graph and on
the streamed file: wall-clock through pytest-benchmark, and a
peak-RSS proxy via ``tracemalloc`` (pure-Python heap peaks — interpreter
overhead cancels out of the comparison since both sides pay it).

It also reports:

* **compressed vs raw spill** — bytes on disk vs round-trip time for
  the zlib-framed spill format.
* **single-file vs sharded(K=4)** — read throughput of the two reader
  families over identical edge content, cold cache
  (``posix_fadvise DONTNEED`` where available), written as a
  ``BENCH_stream_io.json`` record under ``results/``.

Like every ``bench_*`` module here, functions use the ``bench_`` prefix
so the tier-1 test run (default ``python_functions = test*``) never
collects them.  Run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_stream_io.py \
        -o python_functions=bench_ --benchmark-only
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from repro.graph import generators, read_binary_edgelist, write_binary_edgelist
from repro.runtime import make_job, run_job
from repro.stream import (
    BinaryFileEdgeSource,
    ShardedEdgeSource,
    SpillFile,
    write_sharded_edges,
)

_K = 16
_TAU = 1.0
_CHUNK = 1 << 12


def _drop_page_cache(path) -> None:
    """Best-effort eviction so reads hit the device like real OOC runs."""
    if not hasattr(os, "posix_fadvise"):
        return
    fd = os.open(path, os.O_RDONLY)
    try:
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
    finally:
        os.close(fd)


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    graph = generators.rmat(scale=12, edge_factor=8, seed=42, name="bench-rmat")
    path = tmp_path_factory.mktemp("stream-io") / "rmat.bin"
    write_binary_edgelist(graph, path)
    return path


def bench_in_memory_hep(benchmark, edge_file):
    def run():
        graph = read_binary_edgelist(edge_file)
        return run_job(make_job("HEP", graph, _K, tau=_TAU), graph)

    result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    assert result.num_unassigned == 0


def bench_out_of_core_hep(benchmark, edge_file):
    spec = make_job("HEP", edge_file, _K, tau=_TAU, chunk_size=_CHUNK)
    result = benchmark.pedantic(
        run_job, args=(spec,), rounds=2, iterations=1, warmup_rounds=0,
    )
    assert result.num_unassigned == 0
    assert result.breakdown.num_h2h_edges > 0


def bench_out_of_core_hep_compressed_spill(benchmark, edge_file):
    """zlib-framed spill: same parts, smaller disk footprint."""
    raw = run_job(make_job("HEP", edge_file, _K, tau=_TAU, chunk_size=_CHUNK))
    spec = make_job(
        "HEP", edge_file, _K, tau=_TAU, chunk_size=_CHUNK,
        spill_compression="zlib",
    )
    result = benchmark.pedantic(
        run_job, args=(spec,), rounds=1, iterations=1, warmup_rounds=0,
    )
    assert (result.parts == raw.parts).all()
    assert result.spill_bytes < raw.spill_bytes


def bench_spill_format_comparison(benchmark, edge_file, capsys):
    """Raw vs zlib spill: round-trip wall-clock and bytes on disk."""
    source = BinaryFileEdgeSource(edge_file, _CHUNK)

    def roundtrip(compression):
        start = time.perf_counter()
        with SpillFile(compression=compression) as spill:
            for chunk in source:
                spill.append(chunk.pairs, chunk.eids)
            edges = sum(p.shape[0] for p, _ in spill.chunks(_CHUNK))
            nbytes = spill.nbytes
        return time.perf_counter() - start, nbytes, edges

    def measure():
        return {c: roundtrip(c) for c in (None, "zlib")}

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nspill round-trip (append + chunked read-back):")
        for comp, (elapsed, nbytes, edges) in rows.items():
            name = comp or "raw"
            print(f"  {name:<5} {elapsed * 1000:8.1f} ms  "
                  f"{nbytes:>12,} bytes  {edges:,} edges")
    assert rows[None][2] == rows["zlib"][2]
    assert rows["zlib"][1] < rows[None][1]


def bench_reader_throughput_comparison(benchmark, edge_file, capsys):
    """Single-file vs sharded(K=4) read throughput.

    Both readers deliver the identical chunk stream (asserted); the
    comparison is pure I/O + decode.  The measured rows land in
    ``results/BENCH_stream_io.json`` so CI and later sessions can track
    reader throughput as a machine-readable record.
    """
    import json
    from pathlib import Path

    chunk = 1 << 14
    manifest = write_sharded_edges(
        edge_file, edge_file.parent / "rmat.manifest.json", num_shards=4,
        chunk_size=chunk,
    )
    # Fresh source per round and cache eviction for *every* file a
    # reader touches, so both families start equally cold.
    readers = {
        "single-file": lambda: BinaryFileEdgeSource(edge_file, chunk),
        "sharded-k4": lambda: ShardedEdgeSource(manifest, chunk),
    }
    cold_paths = [edge_file, manifest.path, *manifest.shard_paths]

    def sweep(src):
        # Consume every chunk and touch its data.
        edges = 0
        checksum = 0
        for c in src:
            edges += c.num_edges
            checksum += int(c.pairs[0, 0]) + int(c.pairs[-1, 1])
        return edges, checksum

    def timed(make_source, rounds=3):
        best = float("inf")
        result = None
        for _ in range(rounds):
            for path in cold_paths:
                _drop_page_cache(path)
            start = time.perf_counter()
            result = sweep(make_source())
            best = min(best, time.perf_counter() - start)
        return best, result

    def measure():
        return {name: timed(make) for name, make in readers.items()}

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    num_edges = rows["single-file"][1][0]
    record = {
        "bench": "stream_io_readers",
        "edges": num_edges,
        "chunk_size": chunk,
        "shards": manifest.num_shards,
        "rows": [
            {
                "reader": name,
                "seconds": elapsed,
                "edges_per_s": num_edges / elapsed if elapsed else None,
            }
            for name, (elapsed, _) in rows.items()
        ],
    }
    results_dir = Path(__file__).resolve().parent.parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_stream_io.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    with capsys.disabled():
        print("\nreader throughput (full sweep, cold cache, best of 3):")
        for name, (elapsed, _) in rows.items():
            print(f"  {name:<12} {elapsed * 1000:8.1f} ms  "
                  f"{num_edges / elapsed / 1e6:8.2f} Medges/s")
    # Identical content across both reader families.
    assert len({result for _, result in rows.values()}) == 1
    # The sharded reader must keep pace with the single-file reader
    # (generous slack: CI storage is noisy).
    assert rows["sharded-k4"][0] <= rows["single-file"][0] * 1.5


def bench_peak_heap_comparison(benchmark, edge_file, capsys):
    """One traced run of each side; the table is the artifact."""

    def measure():
        rows = []
        tracemalloc.start()
        graph = read_binary_edgelist(edge_file)
        in_mem = run_job(make_job("HEP", graph, _K, tau=_TAU), graph)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append(("in-memory HEP", peak, in_mem.replication_factor))
        del graph, in_mem

        tracemalloc.start()
        result = run_job(
            make_job("HEP", edge_file, _K, tau=_TAU, chunk_size=_CHUNK)
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append(("out-of-core HEP", peak, result.replication_factor))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    with capsys.disabled():
        print("\npeak traced heap (tau=%g, k=%d):" % (_TAU, _K))
        for name, peak, rf in rows:
            print(f"  {name:<18} {peak / 2**20:8.2f} MiB  rf={rf:.4f}")
    in_mem_peak = rows[0][1]
    ooc_peak = rows[1][1]
    # The bounded pipeline must not exceed the in-memory peak: chunks
    # plus the pruned CSR are strictly smaller than the full edge array
    # plus the same CSR.
    assert ooc_peak < in_mem_peak
