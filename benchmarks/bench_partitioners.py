"""Micro-benchmarks of the individual partitioners on the OK stand-in.

Unlike the artifact benches (single-shot experiment regenerations),
these run multiple rounds so pytest-benchmark's statistics are
meaningful — the comparative timing table is the pure-Python analogue of
the paper's run-time panels.
"""

import pytest

from repro.experiments.common import partition_graph
from repro.graph import datasets

_K = 32
_NAMES = ("DBH", "Grid", "HDRF", "HEP-100", "HEP-10", "HEP-1", "NE", "NE++", "SNE")


@pytest.fixture(scope="module")
def ok_graph():
    return datasets.load("OK")


@pytest.mark.parametrize("name", _NAMES)
def bench_partitioner(benchmark, ok_graph, name):
    _, assignment = benchmark.pedantic(
        partition_graph, args=(name, ok_graph, _K), rounds=2, iterations=1,
        warmup_rounds=0,
    )
    assert assignment.num_unassigned == 0


def bench_csr_build(benchmark, ok_graph):
    from repro.graph import CsrGraph

    csr = benchmark.pedantic(
        CsrGraph.build, args=(ok_graph,), rounds=3, iterations=1
    )
    assert csr.col.size == 2 * ok_graph.num_edges


def bench_tau_precompute(benchmark, ok_graph):
    from repro.core import precompute_profile

    profile = benchmark.pedantic(
        precompute_profile, args=(ok_graph, _K), rounds=3, iterations=1
    )
    assert len(profile.bytes_per_tau) > 0
