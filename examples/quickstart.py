#!/usr/bin/env python
"""Quickstart: partition a power-law graph with HEP and inspect quality.

Runs the whole pipeline on the Orkut stand-in dataset:

1. load a graph,
2. partition its edges into k=32 balanced parts with HEP at tau=10,
3. report the paper's metrics (replication factor, balance, run-time),
4. show what the tau knob trades away, by comparing three settings.

Run:  python examples/quickstart.py
"""

import time

from repro import (
    assert_valid,
    datasets,
    hep_memory_bytes,
    make_job,
    run_job,
)


def main() -> None:
    graph = datasets.load("OK")
    print(f"graph: {graph!r}")

    k = 32
    print(f"\npartitioning into k={k} with HEP (tau=10) ...")
    start = time.perf_counter()
    result = run_job(make_job("HEP", graph, k, tau=10.0), graph)
    elapsed = time.perf_counter() - start

    assert_valid(result.to_assignment(graph), alpha=1.0)  # hard guarantees
    print(f"  replication factor : {result.replication_factor:.3f}")
    print(f"  edge balance alpha : {result.edge_balance:.3f}")
    print(f"  run-time           : {elapsed:.2f}s")
    breakdown = result.breakdown
    print(f"  edges streamed     : {breakdown.num_h2h_edges:,} "
          f"({breakdown.h2h_fraction:.1%} of the graph)")

    print("\nthe tau knob (quality vs memory):")
    print(f"  {'tau':>6} | {'RF':>6} | {'model memory':>12} | {'streamed':>8}")
    for tau in (100.0, 10.0, 1.0):
        r = run_job(make_job("HEP", graph, k, tau=tau), graph)
        memory = hep_memory_bytes(graph, tau, k)
        print(
            f"  {tau:>6g} | {r.replication_factor:>6.3f} |"
            f" {memory / 2**20:>10.2f}Mi |"
            f" {r.breakdown.h2h_fraction:>8.1%}"
        )
    print("\nlower tau -> less memory, more streaming, higher RF — the")
    print("trade-off Figure 8 of the paper sweeps.")


if __name__ == "__main__":
    main()
