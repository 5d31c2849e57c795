"""Persisting partitionings for downstream consumers.

A graph processing system ingests a partitioning either as a per-edge
assignment vector or as one edge-list file per partition (the format a
Spark/GraphX loader shards on).  Both are provided, with lossless
round-trips.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.edgelist import Graph, write_binary_edgelist
from repro.partition.base import PartitionAssignment

__all__ = [
    "write_assignment",
    "read_assignment",
    "write_partition_edgelists",
]


def write_assignment(assignment, path: str | os.PathLike) -> None:
    """Write ``parts`` plus a JSON sidecar describing the run.

    ``assignment`` is a :class:`PartitionAssignment` or a runtime
    :class:`~repro.runtime.result.PartitionResult`: anything with
    ``parts``, ``k``, ``num_edges`` and ``num_vertices``.  The vector
    file has one ascii partition id per line, aligned with the
    canonical edge order; the ``.meta.json`` sidecar carries ``k``, edge
    and vertex counts so a reader can validate alignment.
    """
    path = Path(path)
    np.savetxt(path, assignment.parts, fmt="%d")
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(
        json.dumps(
            {
                "k": assignment.k,
                "num_edges": assignment.num_edges,
                "num_vertices": assignment.num_vertices,
            },
            indent=2,
        ),
        encoding="ascii",
    )


def read_assignment(
    graph: Graph, path: str | os.PathLike
) -> PartitionAssignment:
    """Read an assignment written by :func:`write_assignment`, validating
    the sidecar against ``graph``."""
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    if not sidecar.exists():
        raise GraphFormatError(f"missing sidecar {sidecar}")
    meta = json.loads(sidecar.read_text(encoding="ascii"))
    if meta["num_edges"] != graph.num_edges:
        raise GraphFormatError(
            f"assignment was for {meta['num_edges']} edges, graph has "
            f"{graph.num_edges}"
        )
    if meta["num_vertices"] != graph.num_vertices:
        raise GraphFormatError("vertex universe mismatch")
    parts = np.loadtxt(path, dtype=np.int32).reshape(-1)
    return PartitionAssignment(graph, int(meta["k"]), parts)


def write_partition_edgelists(
    assignment: PartitionAssignment, directory: str | os.PathLike
) -> list[Path]:
    """Write one binary edge list per partition (``part-00000.bin`` ...).

    Returns the created paths.  Empty partitions still produce (empty)
    files so loaders can address shards positionally.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    graph = assignment.graph
    paths = []
    for p in range(assignment.k):
        shard = graph.subgraph_edges(assignment.parts == p, name=f"part-{p:05d}")
        path = directory / f"part-{p:05d}.bin"
        write_binary_edgelist(shard, path)
        paths.append(path)
    return paths
