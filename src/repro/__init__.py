"""repro — Hybrid Edge Partitioner (HEP) reproduction library.

A from-scratch Python implementation of *Hybrid Edge Partitioner:
Partitioning Large Power-Law Graphs under Memory Constraints* (Mayer &
Jacobsen, SIGMOD 2021): the HEP system (NE++ in-memory phase + informed
HDRF streaming), seven baseline partitioner families, and the evaluation
substrates (synthetic Table 3 datasets, a Spark/GraphX-style processing
simulator and a paging simulator).

Quickstart — every table name (HEP, ``HEP-<tau>``, HDRF, Greedy, DBH,
Grid, Restreaming, NE, NE++, SNE, DNE, METIS, ADWISE, Random) runs
through ``run_job``; an in-memory graph is passed as the job's source::

    from repro import datasets, make_job, run_job

    graph = datasets.load("OK")
    result = run_job(make_job("HEP", graph, 32, tau=10.0), graph)
    print(result.replication_factor, result.edge_balance)

Out of core — the edge file is streamed in chunks, never loaded whole::

    from repro import make_job, run_job

    result = run_job(make_job("HEP", "wi.bin", 8, memory_budget=400_000))
    print(result.tau, result.replication_factor)
"""

from repro.core import (
    NePlusPlusPartitioner,
    hep_memory_bytes,
    memory_model_for,
    precompute_profile,
    run_ne_plus_plus,
    select_tau,
)
from repro.graph import (
    CsrGraph,
    Graph,
    build_pruned_csr,
    read_binary_edgelist,
    read_text_edgelist,
    write_binary_edgelist,
    write_text_edgelist,
)
from repro.graph import datasets, generators
from repro.metrics import (
    assert_valid,
    edge_balance,
    replication_factor,
    vertex_balance,
)
from repro.partition import (
    AdwisePartitioner,
    DnePartitioner,
    MetisPartitioner,
    NePartitioner,
    PartitionAssignment,
    Partitioner,
    RandomStreamPartitioner,
    SimpleHybridPartitioner,
    SnePartitioner,
)
from repro.runtime import PartitionResult, make_job, run_job
from repro.stream import SpillFile, open_edge_source

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core system
    "NePlusPlusPartitioner",
    "run_ne_plus_plus",
    "select_tau",
    "precompute_profile",
    "hep_memory_bytes",
    "memory_model_for",
    # graphs
    "Graph",
    "CsrGraph",
    "build_pruned_csr",
    "read_binary_edgelist",
    "write_binary_edgelist",
    "read_text_edgelist",
    "write_text_edgelist",
    "datasets",
    "generators",
    # metrics
    "replication_factor",
    "edge_balance",
    "vertex_balance",
    "assert_valid",
    # partitioners
    "Partitioner",
    "PartitionAssignment",
    "AdwisePartitioner",
    "RandomStreamPartitioner",
    "NePartitioner",
    "SnePartitioner",
    "DnePartitioner",
    "MetisPartitioner",
    "SimpleHybridPartitioner",
    # out-of-core jobs
    "make_job",
    "run_job",
    "PartitionResult",
    "SpillFile",
    "open_edge_source",
]
