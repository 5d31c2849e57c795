#!/usr/bin/env python
"""Partitioning under a hard memory budget (the paper's Section 4.4).

Scenario: a machine with a fixed memory budget must partition a graph
whose unpruned CSR would not fit.  The Section 4.4 workflow:

1. profile HEP's projected footprint over a grid of tau values
   (a cheap degree-array pass — Table 2 shows it is negligible),
2. pick the *largest* tau that fits the budget (largest = best quality),
3. partition with that tau and verify the projection.

Run:  python examples/memory_budget.py [budget_kib]
"""

import sys

from repro import (
    datasets,
    hep_memory_bytes,
    make_job,
    precompute_profile,
    run_job,
    select_tau,
)


def main() -> None:
    graph = datasets.load("UK")   # web graph: prunes extremely well
    k = 32
    unpruned = hep_memory_bytes(graph, 1e9, k)
    budget = (
        int(sys.argv[1]) * 1024 if len(sys.argv) > 1 else int(unpruned * 0.6)
    )
    print(f"graph: {graph!r}")
    print(f"unpruned footprint : {unpruned / 2**20:.2f} MiB")
    print(f"memory budget      : {budget / 2**20:.2f} MiB")

    profile = precompute_profile(graph, k)
    print(f"\ntau profile (precomputed in {profile.precompute_seconds*1000:.1f} ms):")
    for row in profile.rows():
        marker = " <- fits" if int(row["bytes"]) <= budget else ""
        print(f"  tau={row['tau']:>7} -> {row['MiB']:>8.3f} MiB{marker}")

    tau, projected = select_tau(graph, budget, k)
    print(f"\nselected tau={tau:g} (projected {projected / 2**20:.2f} MiB)")

    result = run_job(make_job("HEP", graph, k, tau=tau), graph)
    print(f"replication factor at that budget: {result.replication_factor:.3f}")
    print(f"streamed edge share              : "
          f"{result.breakdown.h2h_fraction:.1%}")


if __name__ == "__main__":
    main()
