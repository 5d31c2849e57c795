"""Command-line interface: ``python -m repro`` / ``hep-partition``.

Subcommands mirror the workflows a user of the original C++ system has:

* ``partition`` — partition an edge-list file (or a named stand-in
  dataset) and write one partition id per edge; every table name (HEP,
  ``HEP-<tau>`` and the registered algorithms) runs as a runtime job,
  and ``--out-of-core`` streams the file in chunks instead of loading
  it,
* ``scan``      — the counting/metrics passes alone: stream statistics
  and, with ``--parts``, replication factor and balance for a saved
  assignment,
* ``compare``   — run several partitioners on one graph side by side,
* ``select-tau`` — pick the largest tau fitting a memory budget (§4.4),
* ``extsort``   — rewrite an edge file in degree order with bounded
  memory (external merge sort),
* ``trace``     — inspect a ``--trace`` JSONL file (``trace summarize``
  prints the per-phase time/memory/counter breakdown),
* ``experiment`` — regenerate one of the paper's tables/figures,
* ``datasets``  — list the Table 3 stand-ins or export one to disk.

``partition``, ``scan`` and ``extsort`` accept ``--trace FILE`` to
record a structured span trace of the run (:mod:`repro.obs`); tracing
never changes results, only observes them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core import precompute_profile, select_tau
from repro.core.hep import hep_tau_from_name
from repro.errors import ReproError
from repro.experiments import REGISTRY
from repro.experiments.common import run_partitioner
from repro.graph import datasets, read_binary_edgelist, read_text_edgelist
from repro.graph.edgelist import Graph
from repro.metrics import format_table
from repro.obs.summary import format_summary, read_trace
from repro.obs.tracer import MEMORY_MODES, tracing
from repro.runtime.registry import algorithm_names
from repro.stream.extsort import EXTSORT_ORDERS
from repro.stream.reader import DEFAULT_CHUNK_SIZE

__all__ = ["main", "build_parser"]


def _load_graph(source: str) -> Graph:
    """Dataset name, text/binary edge list, or shard manifest."""
    if source.upper() in datasets.available():
        return datasets.load(source)
    path = Path(source)
    if not path.exists():
        raise ReproError(
            f"{source!r} is neither a dataset name "
            f"({', '.join(datasets.available())}) nor a file"
        )
    from repro.stream.shard import ShardedEdgeSource, is_manifest_path

    if is_manifest_path(path):
        src = ShardedEdgeSource(path)
        pairs = [chunk.pairs for chunk in src]
        edges = (
            np.vstack(pairs) if pairs else np.empty((0, 2), dtype=np.int64)
        )
        return Graph.from_edges(
            edges, num_vertices=src.num_vertices, name=path.stem
        )
    from repro.stream.reader import BINARY_SUFFIXES, require_edge_format

    if path.suffix in BINARY_SUFFIXES:
        require_edge_format(path, "binary")
        return read_binary_edgelist(path, name=path.stem)
    require_edge_format(path, "text")
    return read_text_edgelist(path, name=path.stem)


def _cmd_partition(args: argparse.Namespace) -> int:
    """Partition a graph's edges; report, and optionally write, the result.

    Every run goes through :func:`repro.runtime.api.run_job`:
    ``--out-of-core`` streams the path, otherwise the job gets the
    loaded Graph.
    """
    if args.method.lower() == "help":
        from repro.runtime.registry import algorithm_catalog

        print(algorithm_catalog())
        return 0
    if args.cache is not None and not args.out_of_core:
        raise ReproError("--cache requires --out-of-core (the store keys "
                         "on the streamed input)")
    if args.shards_dir and args.out_of_core:
        raise ReproError("--shards-dir needs the edge list in memory; "
                         "rerun without --out-of-core to write shards")
    store = _make_store(args)
    graph, result = _partition_job(args, store)
    _print_report(result, args.graph, store)
    if args.output:
        from repro.graph.partition_io import write_assignment

        write_assignment(result, args.output)
        print(f"assignment written : {args.output} (+ .meta.json sidecar)")
    if args.shards_dir:
        from repro.graph.partition_io import write_partition_edgelists

        paths = write_partition_edgelists(
            result.to_assignment(graph), args.shards_dir
        )
        print(f"shards written     : {len(paths)} binary edge lists in "
              f"{args.shards_dir}")
    return 0


def _partition_job(args: argparse.Namespace, store):
    """``(graph or None, result)`` of the flag set run by ``run_job``."""
    from repro.runtime.api import run_job, validate_spec

    spec = _job_spec_from_args(args)
    if not args.out_of_core:
        # The file is loaded (and canonicalized) below; the job gets
        # the Graph.
        spec = spec.with_input(kind="graph", path=None)
    # The flags are judged before the file is read.
    validate_spec(spec)
    graph = None if args.out_of_core else _load_graph(args.graph)
    return graph, run_job(spec, graph, store=store)


def _job_spec_from_args(args: argparse.Namespace):
    """Lower the ``partition`` flag set to a runtime JobSpec.

    Every flag is lowered as given, HEP's knobs on any algorithm, so
    :func:`~repro.runtime.api.validate_spec` judges the combination.  A
    ``HEP-<tau>`` name lowers to HEP at that tau.  Unset execution
    flags keep :func:`~repro.runtime.spec.make_job`'s defaults.
    """
    from repro.runtime.spec import make_job

    named_tau = hep_tau_from_name(args.method)
    if named_tau is not None and args.tau is not None:
        raise ReproError(f"--tau cannot be combined with {args.method!r}, "
                         f"whose name carries its own tau")
    options: dict = dict(
        tau=args.tau if named_tau is None else named_tau,
        memory_budget=args.memory_budget,
        spill_dir=args.spill_dir,
        spill_compression=args.spill_compression,
        batch=args.batch,
    )
    if args.workers is not None:
        options["workers"] = args.workers
    hep = named_tau is not None or args.method.upper() == "HEP"
    return make_job(
        "HEP" if hep else args.method, args.graph, args.k,
        chunk_size=args.chunk_size,
        algo_params={} if args.passes is None else {"passes": args.passes},
        **options,
    )


def _make_store(args: argparse.Namespace):
    """The ``--cache`` artifact store, or ``None`` when not asked for."""
    if args.cache is None:
        return None
    from repro.runtime.store import ArtifactStore

    return ArtifactStore(args.cache)


def _print_report(result, source: str, store) -> None:
    """The ``partition`` report, rendered from the result alone.

    Every optional line keys off a field the artifact store round-trips,
    so a cache hit prints the cold run's report line for line (bar the
    run-time and cache lines).
    """
    spec = result.spec
    name = result.algorithm if result.tau is None else f"HEP-{result.tau:g}"
    in_memory = spec.input.kind == "graph"
    shape = "in memory" if in_memory else "out-of-core"
    if spec.workers:
        shape += f", {spec.workers} worker processes"
    print(f"partitioner        : {name} ({shape})")
    print(f"source             : {source} "
          f"(n={result.num_vertices:,} m={result.num_edges:,})")
    if not in_memory:
        print(f"chunk size         : {result.chunk_size:,} edges")
    if result.passes > 1:
        print(f"stream passes      : {result.passes}")
    if result.projected_memory_bytes is not None:
        print(f"memory budget      : {spec.memory_budget:,} bytes "
              f"(projected {result.projected_memory_bytes:,})")
    if result.breakdown is not None:
        print(f"h2h edges spilled  : {result.breakdown.num_h2h_edges:,} "
              f"({result.spill_bytes:,} bytes on disk"
              + (f", {spec.spill_compression}"
                 if spec.spill_compression else "")
              + ")")
    report = result.report
    if report is not None:
        print(f"bsp schedule       : {report.workers} workers x batch "
              f"{report.batch} = {report.supersteps:,} supersteps "
              f"({report.slow_supersteps} near capacity)")
        timings = report.timings
        if timings is not None:
            print(f"worker busy        : max {timings.max_busy_s:.3f}s, "
                  f"mean {timings.mean_busy_s:.3f}s "
                  f"(skew {timings.skew:.2f}x)")
            print(f"coordinator        : recv wait "
                  f"{timings.coordinator_recv_s:.3f}s, "
                  f"merge {timings.coordinator_merge_s:.3f}s, "
                  f"send {timings.coordinator_send_s:.3f}s")
    if store is not None:
        outcome = "hit" if result.cache_hit else "miss (stored)"
        print(f"cache              : {outcome} job {result.job_hash[:12]} "
              f"in {store.root}")
    print(f"replication factor : {result.replication_factor:.4f}")
    print(f"edge balance alpha : {result.edge_balance:.4f}")
    print(f"run-time           : {result.runtime_s:.3f}s")


def _cmd_scan(args: argparse.Namespace) -> int:
    """Counting/metrics passes alone: stream stats, optionally quality.

    The counting pass reports ``n``, ``m`` and degree statistics for
    any edge source.  With ``--parts`` (a per-edge partition-id file as
    written by ``partition --output``), the metrics pass additionally
    reports replication factor and edge balance.
    """
    from repro.stream import open_edge_source, scan_source

    opened = open_edge_source(args.graph, args.chunk_size)
    stats = scan_source(opened)
    print(f"source             : {opened.describe()}")
    print(f"universe           : n={stats.num_vertices:,} "
          f"m={stats.num_edges:,}")
    max_degree = int(stats.degrees.max()) if stats.num_vertices else 0
    isolated = int((stats.degrees == 0).sum())
    print(f"degrees            : mean {stats.mean_degree:.3f}, "
          f"max {max_degree:,}, isolated {isolated:,}")
    print("scan passes        : sequential")
    if args.parts is None:
        return 0
    from repro.metrics import streamed_quality_report

    parts = np.loadtxt(args.parts, dtype=np.int64, ndmin=1)
    k = args.k if args.k is not None else int(max(parts.max(), 0)) + 1
    report = streamed_quality_report(
        args.graph,
        parts,
        k,
        chunk_size=args.chunk_size,
        memory_budget=args.memory_budget,
        stats=stats,  # the counting pass above; don't sweep twice
    )
    print(f"assignment         : {args.parts} (k={k})")
    print(f"replication factor : {report.replication_factor:.4f}")
    print(f"edge balance alpha : {report.edge_balance:.4f}")
    print(f"unassigned edges   : {report.num_unassigned:,}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    rows = []
    for name in args.partitioners:
        report = run_partitioner(name, graph, args.k)
        rows.append(report.row())
    print(format_table(rows, title=f"{graph.name or args.graph} at k={args.k}"))
    return 0


def _cmd_select_tau(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    budget = int(args.budget_kib * 1024)
    profile = precompute_profile(graph, args.k)
    print(format_table(profile.rows(), title="projected HEP footprint per tau"))
    tau, projected = select_tau(graph, budget, args.k)
    print(f"\nbudget {budget:,} bytes -> tau={tau:g} "
          f"(projected {projected:,} bytes)")
    return 0


def _cmd_extsort(args: argparse.Namespace) -> int:
    """External-sort an edge stream into a degree-ordered edge file.

    With ``--shards K`` the sorted stream lands pre-sharded: a manifest
    plus K shard files the sharded reader consumes directly.
    """
    from repro.stream import external_sort_edges

    if args.compress is not None and args.shards is None:
        raise ReproError("--compress requires --shards (only the sharded "
                         "format carries zlib frames)")
    result = external_sort_edges(
        args.graph, args.output, order=args.order,
        chunk_size=args.chunk_size, num_shards=args.shards,
        compression=args.compress,
    )
    print(f"sorted             : {args.graph} -> {result.path}")
    print(f"order              : {result.order}")
    print(f"edges              : {result.num_edges:,} "
          f"(universe n={result.num_vertices:,})")
    print(f"sort runs          : {result.num_runs} "
          f"({result.run_bytes:,} temp bytes)")
    if result.num_shards:
        print(f"shards             : {result.num_shards}"
              + (f" ({result.compression} frames)"
                 if result.compression else ""))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Inspect a ``--trace`` JSONL file written by a previous run.

    ``trace summarize FILE`` aggregates the spans into a per-phase
    time/memory/counter breakdown table (see docs/observability.md for
    the format and the span taxonomy).
    """
    records = read_trace(args.file)
    print(format_summary(records))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: partitioning as a service (see docs/serve.md).

    Runs the asyncio service until SIGTERM/SIGINT and drains
    gracefully: queued jobs cancel, a running job stops at its next
    stage boundary (its BSP workers are already reaped and its shared
    segment unlinked there).  With
    ``--self-test SOURCE`` the service instead starts on an ephemeral
    port, exercises itself end to end over HTTP (submit twice → one
    execution + a dedup hit, progress events, lookups), and exits.
    """
    import asyncio

    if args.self_test is not None:
        from repro.serve.selftest import run_self_test

        return asyncio.run(run_self_test(
            args.self_test, args.cache, algo=args.algo, k=args.k,
            workers=args.workers,
        ))
    from repro.serve.app import serve_forever

    return asyncio.run(serve_forever(
        args.cache, host=args.host, port=args.port,
        queue_size=args.queue_size, lru=args.artifact_lru,
    ))


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.id not in REGISTRY:
        print(f"unknown experiment {args.id!r}; available: {', '.join(REGISTRY)}")
        return 2
    result = REGISTRY[args.id]()
    print(result.format())
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    if args.export:
        from repro.graph.edgelist import write_binary_edgelist, write_text_edgelist

        graph = datasets.load(args.export)
        if args.format == "sharded":
            from repro.stream.shard import write_sharded_edges

            output = args.output or f"{args.export.upper()}.manifest.json"
            manifest = write_sharded_edges(
                graph, output, num_shards=args.shards,
                compression=args.compress,
            )
            print(f"exported {graph!r}")
            print(f"  -> {manifest.path} ({manifest.num_shards} shards"
                  + (f", {args.compress}" if args.compress else "")
                  + f", {manifest.total_bytes():,} bytes)")
            return 0
        if args.compress is not None:
            raise ReproError("--compress applies to --format sharded only")
        suffix = ".bin" if args.format == "binary" else ".txt"
        output = args.output or f"{args.export.upper()}{suffix}"
        if args.format == "binary":
            nbytes = write_binary_edgelist(graph, output)
        else:
            write_text_edgelist(graph, output)
            nbytes = Path(output).stat().st_size
        print(f"exported {graph!r}")
        print(f"  -> {output} ({args.format}, {nbytes:,} bytes)")
        return 0
    rows = []
    for name in datasets.available():
        spec = datasets.DATASETS[name]
        rows.append(
            {
                "name": name,
                "type": spec.kind,
                "paper_|V|": spec.paper_vertices,
                "paper_|E|": spec.paper_edges,
                "stand-in": spec.description,
            }
        )
    print(format_table(rows, title="Table 3 stand-in datasets"))
    return 0


def _trace_parent() -> argparse.ArgumentParser:
    """Parent parser: the ``--trace`` flag group shared by run commands."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--trace", default=None, metavar="FILE",
                        help="record a structured span trace (JSONL) of "
                             "this run; inspect it with `repro trace "
                             "summarize`")
    parent.add_argument("--trace-memory", choices=MEMORY_MODES, default=None,
                        help="additionally probe per-span memory deltas "
                             "(tracemalloc: allocation-exact, slower; "
                             "rss: process RSS, cheap; requires --trace)")
    return parent


def _source_parent(graph_help: str, chunk_help: str) -> argparse.ArgumentParser:
    """Parent parser: the edge-source flag group (positional + chunking)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("graph", help=graph_help)
    parent.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                        help=chunk_help)
    return parent


def _budget_parent(budget_help: str) -> argparse.ArgumentParser:
    """Parent parser: the ``--memory-budget`` flag group."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--memory-budget", type=int, default=None,
                        metavar="BYTES", help=budget_help)
    return parent


#: the table names ``partition --method`` and ``compare`` accept
_ALGORITHMS_HELP = f"HEP, HEP-<tau>, {', '.join(algorithm_names())}"


def _partition_parents() -> list[argparse.ArgumentParser]:
    """The shared flag groups ``partition`` and ``job describe`` use."""
    return [
        _source_parent(
            "dataset name or edge-list file",
            "edges per I/O chunk for --out-of-core",
        ),
        _budget_parent(
            "byte budget for HEP's in-memory structures; "
            "selects tau from the §4.4 grid (excludes --tau)"
        ),
    ]


def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    """The algorithm/pipeline flags ``partition`` and ``job describe`` share."""
    p.add_argument("--k", type=int, default=32, help="number of partitions")
    p.add_argument("--method", "--algo", dest="method", default="HEP",
                   help=f"{_ALGORITHMS_HELP}; each runs in memory or "
                        "--out-of-core (`--algo help` lists their "
                        "parameters)"),
    p.add_argument("--tau", type=float, default=None,
                   help="HEP degree threshold factor (default 10.0)")
    p.add_argument("--spill-dir", default=None,
                   help="directory for the h2h spill file (default: temp dir)")
    p.add_argument("--spill-compression", default=None,
                   help="compress the h2h spill file (zlib frames)")
    p.add_argument("--passes", type=int, default=None,
                   help="stream passes for --algo Restreaming (default 3)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="partition with N worker processes (HEP, or HDRF "
                        "streaming a file with --out-of-core; 0 = "
                        "sequential)")
    p.add_argument("--batch", type=int, default=None, metavar="B",
                   help="edges each worker scores per BSP superstep "
                        "(default 8; requires --workers)")


def _cmd_job_describe(args: argparse.Namespace) -> int:
    """``repro job describe``: canonical JSON + content hash of a spec.

    Prints exactly what the runtime would hash and cache-key for this
    flag set — the canonical one-line JSON, the sha256 content hash,
    and the stages ``run_job`` would run.  A spec ``run_job`` would
    reject is rejected here with the same message.
    """
    from repro.runtime.api import validate_spec
    from repro.runtime.stages import PIPELINES, pipeline_kind

    spec = _job_spec_from_args(args)
    validate_spec(spec)
    print(spec.canonical_json())
    print(f"content hash       : {spec.content_hash()}")
    print(f"pipeline           : "
          f"{' -> '.join(PIPELINES[pipeline_kind(spec)])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid Edge Partitioner (SIGMOD'21) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition a graph's edges",
                       parents=[*_partition_parents(), _trace_parent()])
    _add_partition_flags(p)
    p.add_argument("--output", help="write per-edge partition ids here")
    p.add_argument("--shards-dir", help="write one binary edge list per partition")
    p.add_argument("--out-of-core", action="store_true",
                   help="stream the edge file in chunks (repro.stream) "
                        "instead of loading it first; it picks the "
                        "source, not the algorithm")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="content-addressed result cache: identical "
                        "out-of-core jobs are served from DIR without "
                        "recomputing (keyed by job hash + input digest)")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser(
        "job",
        help="inspect runtime job specs (the spec run_job would run)",
    )
    job_sub = p.add_subparsers(dest="job_command", required=True)
    p2 = job_sub.add_parser(
        "describe",
        help="print a spec's canonical JSON, content hash, and stages",
        parents=_partition_parents(),
    )
    _add_partition_flags(p2)
    p2.set_defaults(func=_cmd_job_describe)

    p = sub.add_parser(
        "scan",
        help="counting/metrics passes alone: stream stats and "
             "(with --parts) assignment quality, out of core",
        parents=[
            _source_parent(
                "dataset name or edge-list file/manifest",
                "edges per I/O chunk for every pass",
            ),
            _budget_parent(
                "byte bound for the metrics cover; larger covers "
                "fall back to column-blocked sweeps"
            ),
            _trace_parent(),
        ],
    )
    p.add_argument("--parts", default=None, metavar="FILE",
                   help="per-edge partition-id file (one id per line, as "
                        "written by partition --output) to score")
    p.add_argument("--k", type=int, default=None,
                   help="partition count for --parts (default: max id + 1)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("compare", help="run several partitioners side by side")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=32)
    p.add_argument(
        "--partitioners",
        nargs="+",
        default=["HEP-100", "HEP-10", "HEP-1", "HDRF", "DBH", "NE"],
        help=_ALGORITHMS_HELP,
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("select-tau", help="pick tau for a memory budget (§4.4)")
    p.add_argument("graph")
    p.add_argument("--budget-kib", type=float, required=True)
    p.add_argument("--k", type=int, default=32)
    p.set_defaults(func=_cmd_select_tau)

    p = sub.add_parser(
        "extsort",
        help="rewrite an edge file in degree order with bounded memory",
        parents=[
            _source_parent(
                "dataset name or edge-list file",
                "edges per in-memory sort run",
            ),
            _trace_parent(),
        ],
    )
    p.add_argument("output", help="binary edge-list file to write")
    p.add_argument("--order", choices=EXTSORT_ORDERS, default="degree",
                   help="ordering to realize (degree-derived keys only)")
    p.add_argument("--shards", type=int, default=None, metavar="K",
                   help="split the sorted stream into K shard files plus "
                        "a manifest (output becomes <out>.manifest.json)")
    p.add_argument("--compress", choices=("zlib",), default=None,
                   help="zlib-framed shard files (requires --shards)")
    p.set_defaults(func=_cmd_extsort)

    p = sub.add_parser(
        "trace",
        help="inspect a --trace JSONL file from a previous run",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p2 = trace_sub.add_parser(
        "summarize",
        help="per-phase time/memory/counter breakdown of a trace",
    )
    p2.add_argument("file", help="trace JSONL file written by --trace")
    p2.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "serve",
        help="partitioning as a service: submit/poll/lookup over HTTP",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8642,
                   help="bind port (default 8642; 0 = ephemeral)")
    p.add_argument("--cache", default="serve-cache", metavar="DIR",
                   help="artifact-store root completed jobs land in "
                        "(default serve-cache)")
    p.add_argument("--queue-size", type=int, default=16, metavar="N",
                   help="max pending jobs before submits get 503")
    p.add_argument("--artifact-lru", type=int, default=4, metavar="N",
                   help="attached artifacts kept hot for lookups")
    p.add_argument("--self-test", default=None, metavar="SOURCE",
                   help="start on an ephemeral port, exercise the "
                        "service end to end against SOURCE, and exit")
    p.add_argument("--algo", default="HDRF",
                   help="self-test algorithm (default HDRF)")
    p.add_argument("--k", type=int, default=8,
                   help="self-test partition count (default 8)")
    p.add_argument("--workers", type=int, default=2,
                   help="self-test worker processes (default 2)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("id", help=f"one of: {', '.join(REGISTRY)}")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser(
        "datasets", help="list the Table 3 stand-ins or export one to disk"
    )
    p.add_argument("--export", metavar="NAME", default=None,
                   help="write the named stand-in as an on-disk edge file")
    p.add_argument("--format", choices=("text", "binary", "sharded"),
                   default="binary",
                   help="edge-file format for --export")
    p.add_argument("--output", default=None,
                   help="output path for --export "
                        "(default: <NAME>.bin/.txt/.manifest.json)")
    p.add_argument("--shards", type=int, default=4, metavar="K",
                   help="shard count for --format sharded")
    p.add_argument("--compress", choices=("zlib",), default=None,
                   help="zlib-framed shard files (--format sharded only)")
    p.set_defaults(func=_cmd_datasets)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; ``--trace`` wraps the whole run.

    A :class:`~repro.errors.ReproError` or an :class:`OSError` (an
    unusable directory, say) prints ``error: ...`` and returns 1.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    try:
        if trace_path is None:
            if getattr(args, "trace_memory", None) is not None:
                raise ReproError("--trace-memory requires --trace")
            return args.func(args)
        with tracing(trace_path, memory=args.trace_memory) as tracer:
            rc = args.func(args)
            spans = tracer.num_spans
        print(f"trace written      : {trace_path} ({spans} spans; "
              f"`repro trace summarize {trace_path}`)")
        return rc
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
