"""Seeded input and the numpy reference the outputs are checked against.

The graph is :func:`repro.graph.generators.rmat` with the WI stand-in's
recipe at ``2**scale`` vertices and the workload seed; seed 104 at
scale 17 is the WI stand-in at ``REPRO_SCALE=16``.  It is
exported as a 4-shard manifest, and the sha256 of the shard bytes is
recorded so two runs can show they read the same input.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

from common import NUM_SHARDS, WI_RECIPE


def make_input(seed: int, scale: int, out_dir: Path):
    """Generate and export the graph; returns ``(graph, manifest, record)``."""
    from repro.graph import generators
    from repro.stream import write_sharded_edges

    out_dir.mkdir(parents=True, exist_ok=True)
    graph = generators.rmat(
        scale=scale, seed=seed, name=f"rmat{scale}-seed{seed}", **WI_RECIPE
    )
    manifest = write_sharded_edges(
        graph, out_dir / "input.manifest.json", num_shards=NUM_SHARDS
    )
    digest = hashlib.sha256()
    for shard in manifest.shard_paths:
        digest.update(Path(shard).read_bytes())
    record = {
        "generator": "rmat", "recipe": WI_RECIPE, "scale": scale,
        "seed": seed, "n": int(graph.num_vertices),
        "m": int(graph.num_edges), "shards": NUM_SHARDS,
        "shard_sha256": digest.hexdigest(),
    }
    return graph, Path(manifest.path), record


def timed_setups(seed: int, scale: int, workdir: Path, repeats: int,
                 start_process):
    """Run the whole set-up ``repeats`` times; keep the last one.

    ``start_process(manifest)`` starts the program process and returns
    once it is ready; every set-up but the last is closed again with
    its ``close()``.  Returns ``(graph, manifest, record, process,
    seconds)``; all set-ups must export byte-identical shards.
    """
    seconds = []
    digests = set()
    for index in range(repeats):
        start = time.perf_counter()
        graph, manifest, record = make_input(
            seed, scale, workdir / f"input-{index}"
        )
        process = start_process(manifest)
        seconds.append(time.perf_counter() - start)
        digests.add(record["shard_sha256"])
        if index < repeats - 1:
            process.close()
    if len(digests) != 1:
        process.close()
        raise RuntimeError("the same seed exported different shard bytes")
    return graph, manifest, record, process, seconds


def vertex_cover(edges: np.ndarray, parts: np.ndarray, k: int,
                 num_vertices: int) -> np.ndarray:
    """``k x n`` bool matrix: part ``p`` holds a replica of vertex ``v``."""
    cover = np.zeros((k, num_vertices), dtype=bool)
    cover[parts, edges[:, 0]] = True
    cover[parts, edges[:, 1]] = True
    return cover


def check_assignment(graph, parts: np.ndarray, k: int, loads, rf: float,
                     balance: float) -> list[str]:
    """Recompute the quality of ``parts`` with numpy; list every mismatch."""
    errors = []
    m = graph.num_edges
    if parts.shape != (m,):
        return [f"parts has shape {parts.shape}, expected ({m},)"]
    if parts.min() < 0 or parts.max() >= k:
        errors.append(
            f"parts outside [0, {k}): min {parts.min()}, max {parts.max()}"
        )
        return errors
    counts = np.bincount(parts, minlength=k)
    if not np.array_equal(np.asarray(loads), counts):
        errors.append("loads != bincount(parts)")
    cover = vertex_cover(graph.edges, parts, k, graph.num_vertices)
    covered = int((graph.degrees > 0).sum())
    want_rf = float(cover.sum() / covered)
    want_balance = float(counts.max() / (m / k))
    if not np.isclose(rf, want_rf, rtol=1e-12, atol=0.0):
        errors.append(f"rf {rf!r} != numpy {want_rf!r}")
    if not np.isclose(balance, want_balance, rtol=1e-12, atol=0.0):
        errors.append(f"edge_balance {balance!r} != numpy {want_balance!r}")
    return errors
