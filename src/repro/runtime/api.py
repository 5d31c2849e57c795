"""``run_job``: the one way to run a partitioning job.

The runner takes a frozen :class:`~repro.runtime.spec.JobSpec`,
validates it (:func:`validate_spec`) and calls its pipeline's stages
(:data:`~repro.runtime.stages.PIPELINES`) in order inside one
``partition`` root span, so the observability suite pins a run's span
tree and attributes.  With an
:class:`~repro.runtime.store.ArtifactStore` attached, a
content-addressed lookup runs first: on a hit the saved assignment is
returned bit for bit with **zero** stages executed (the result's
``stages_executed`` is empty and the trace holds a single
``cache_hit`` span instead of the pipeline).
"""

from __future__ import annotations

import time

from repro.errors import ConfigurationError, JobCancelledError
from repro.obs.tracer import get_tracer
from repro.partition.scoring import _is_finite, check_hdrf_params
from repro.runtime.registry import algorithm_names, create_algorithm
from repro.runtime.result import PartitionResult
from repro.runtime.spec import JobSpec, _is_count, declared_params
from repro.runtime.stages import PIPELINES, STAGES, RunContext, pipeline_kind
from repro.stream.reader import _check_chunk_size, check_order, path_format
from repro.stream.records import check_codec
from repro.stream.workers import check_worker_input

__all__ = ["run_job", "validate_spec"]

#: HEP-only spec fields and what each one is for.  ``spill_dir`` is not
#: listed: it only places temp files, so any spec may set it.
_HEP_ONLY = (
    ("tau", "tau is HEP's degree threshold"),
    ("memory_budget", "a memory budget tunes HEP's tau"),
    ("spill_compression", "spill_compression applies to HEP's h2h spill"),
)


def validate_spec(spec: JobSpec) -> None:
    """Reject a spec the run would fail on or silently misread.

    :func:`run_job` calls this first, and ``repro serve`` calls it at
    submit time, so the CLI, ``run_job`` and ``POST /jobs`` reject the
    same specs with the same messages — before any input is hashed or
    any stage runs.  Beyond the numeric ranges (``k`` an integer >= 2,
    ``alpha`` a finite number >= 1, ``workers`` an integer >= 0 and,
    only where workers run, ``batch`` an integer >= 1), a spill codec
    the spill file knows and an ``input.order`` the input can stream in
    (:func:`~repro.stream.reader.check_order`, judged from a path's
    suffix; an already-open source and multi-worker HDRF stream natural
    order only), multi-worker HDRF must read a manifest or a flat
    binary edge file (:func:`~repro.stream.workers.check_worker_input`,
    by suffix too), ``algo`` must be HEP or a registered algorithm,
    every ``algo_params`` name must be one that algorithm declares, a
    declared ``lam``/``eps`` must pass
    :func:`~repro.partition.scoring.check_hdrf_params`, and a registered
    algorithm's adapter must accept its parameters.  An adapter that
    gathers the stream for an in-memory class takes neither a stream
    order nor an ``alpha``.  HEP's own knobs (:data:`_HEP_ONLY`) are
    errors on any other algorithm, and a fixed ``tau`` excludes a
    ``memory_budget``.
    """
    hep = pipeline_kind(spec) == "hep"
    _check_chunk_size(spec.chunk_size)
    if not (_is_count(spec.k) and spec.k >= 2):
        raise ConfigurationError(f"k must be an integer >= 2, got {spec.k!r}")
    if spec.input.kind == "path":
        check_order(path_format(spec.input.path), spec.input.order)
    elif spec.input.kind in ("dataset", "graph"):
        check_order("memory", spec.input.order)
    elif spec.input.order != "natural":
        raise ConfigurationError(
            f"an open edge source streams in the order it was opened in "
            f"(order='natural'); got order {spec.input.order!r}"
        )
    if not (_is_finite(spec.alpha) and spec.alpha >= 1.0):
        # capacity_bound's wording; it lets a NaN through to int()
        raise ConfigurationError(f"alpha must be >= 1.0, got {spec.alpha}")
    if spec.tau is not None and not spec.tau > 0:
        raise ConfigurationError(f"tau must be positive, got {spec.tau}")
    check_codec(spec.spill_compression, "spill compression")
    if spec.memory_budget is not None and spec.memory_budget < 1:
        raise ConfigurationError(
            f"memory_budget must be positive, got {spec.memory_budget}"
        )
    if not (_is_count(spec.workers) and spec.workers >= 0):
        raise ConfigurationError(
            f"workers must be an integer >= 0, got {spec.workers!r}"
        )
    if spec.workers == 0 and spec.batch is not None:
        raise ConfigurationError(
            "batch sizes the per-worker superstep; it requires workers >= 1"
        )
    if spec.workers >= 1:
        if not (_is_count(spec.batch) and spec.batch >= 1):
            raise ConfigurationError(
                f"batch must be an integer >= 1, got {spec.batch!r}"
            )
        # The workers stream informed HDRF (alone or as HEP's phase
        # two); any other algorithm would silently run as HDRF.
        if not hep and spec.algo.upper() != "HDRF":
            raise ConfigurationError(
                f"multi-worker partitioning supports HEP or HDRF (the "
                f"BSP-parallelizable streaming kernels); got {spec.algo!r}"
            )
        # Multi-worker HDRF deals shard files to its workers; HEP's
        # workers read the h2h spill, so any input serves them.
        if not hep and spec.input.kind != "path":
            raise ConfigurationError(
                f"multi-worker HDRF reads its shards from an edge file or "
                f"shard manifest on disk; got a {spec.input.kind!r} input"
            )
        if not hep:
            check_worker_input(spec.input.path)
        # Its workers stream their shards in file order, whatever the
        # spec says.
        if not hep and spec.input.order != "natural":
            raise ConfigurationError(
                f"multi-worker HDRF streams its shards in file order "
                f"(order='natural'); got order {spec.input.order!r}"
            )
    declared = declared_params(spec.algo)
    if declared is None:
        raise ConfigurationError(
            f"unknown algorithm {spec.algo!r}; a job runs HEP, "
            f"{', '.join(algorithm_names())}"
        )
    undeclared = sorted(set(spec.params) - set(declared))
    if undeclared:
        raise ConfigurationError(
            f"{spec.algo!r} takes no parameter "
            f"{', '.join(map(repr, undeclared))} "
            f"(declared: {', '.join(declared) or 'none'})"
        )
    if hep and spec.tau is not None and spec.memory_budget is not None:
        raise ConfigurationError(
            "a fixed tau and a memory budget conflict: the budget exists "
            "to select tau (drop one of them)"
        )
    if not hep:
        for name, what in _HEP_ONLY:
            if getattr(spec, name) is not None:
                raise ConfigurationError(
                    f"{what}; {spec.algo!r} has no such knob"
                )
    if {"lam", "eps"} <= declared.keys():
        # HEP, HDRF and Restreaming score with HDRF's balance term.
        check_hdrf_params(spec.params["lam"], spec.params["eps"])
    if hep:
        return
    # The adapter's own parameter checks (e.g. Restreaming's passes).
    algorithm = create_algorithm(spec.algo, **spec.params)
    if algorithm.gathers and (
        spec.input.order != "natural" or spec.alpha != 1.0
    ):
        raise ConfigurationError(
            f"{algorithm.name!r} partitions the gathered graph in memory "
            f"under its own balance bound, so it takes order='natural' and "
            f"alpha 1.0; got order {spec.input.order!r} and alpha "
            f"{spec.alpha}"
        )


def _default_source(spec: JobSpec):
    """Resolve the source from the spec alone (path/dataset inputs)."""
    if spec.input.kind in ("path", "dataset"):
        return spec.input.path
    raise ConfigurationError(
        f"jobspec input of kind {spec.input.kind!r} requires an explicit "
        "source object passed to run_job"
    )


def _names(spec: JobSpec, algorithm) -> tuple[str, str]:
    """(root-span display name, result-facing algorithm name)."""
    if pipeline_kind(spec) == "hep":
        if spec.workers >= 1:
            name = f"HEP-mw{spec.workers}"
            return name, name
        return "HEP-ooc", "HEP"
    if spec.workers >= 1:
        name = f"HDRF-mw{spec.workers}"
        return name, name
    return f"{algorithm.name}-ooc", algorithm.name


def _check_cancel(cancel, spec: JobSpec, where: str) -> None:
    """Raise :class:`JobCancelledError` if ``cancel`` is set."""
    if cancel is not None and cancel.is_set():
        raise JobCancelledError(
            f"job {spec.content_hash()[:12]} cancelled before {where}"
        )


def _execute(spec: JobSpec, source, cancel=None) -> PartitionResult:
    """Run the spec's pipeline under the ``partition`` root span."""
    from repro.stream.reader import open_edge_source

    kind = pipeline_kind(spec)
    algo = None
    if kind != "hep" and spec.workers == 0:
        algo = create_algorithm(spec.algo, **spec.params)
    display, result_name = _names(spec, algo)

    ctx = RunContext(spec, source, algorithm=algo)
    if kind == "hep":
        ctx.empty_message = "HEP: edge stream is empty"
    elif spec.workers >= 1:
        ctx.empty_message = "multi-worker HDRF: edge stream is empty"
    else:
        ctx.empty_message = f"{algo.name}: edge stream is empty"

    tracer = get_tracer()
    start = time.perf_counter()
    attrs: dict = {"algo": display, "k": spec.k}
    if kind != "hep" and spec.workers >= 1:
        attrs["workers"] = spec.workers
    attrs["source"] = str(source)
    with tracer.span("partition", **attrs):
        try:
            ctx.src = open_edge_source(
                source, spec.chunk_size, order=spec.input.order,
                seed=spec.input.seed,
            )
            for name in PIPELINES[kind]:
                _check_cancel(cancel, spec, f"stage {name!r}")
                STAGES[name](spec, ctx)
        finally:
            ctx.close()
    return PartitionResult(
        spec=spec,
        algorithm=result_name,
        parts=ctx.parts,
        k=spec.k,
        num_vertices=ctx.stats.num_vertices,
        num_edges=ctx.stats.num_edges,
        chunk_size=spec.chunk_size,
        loads=ctx.loads,
        replication_factor=ctx.replication_factor,
        edge_balance=ctx.edge_balance,
        runtime_s=time.perf_counter() - start,
        passes=ctx.passes,
        tau=ctx.tau,
        breakdown=ctx.breakdown,
        spill_bytes=ctx.spill_bytes,
        projected_memory_bytes=ctx.projected_memory_bytes,
        report=ctx.report,
        job_hash=spec.content_hash(),
        cache_hit=False,
        # A run either completes every stage or raises.
        stages_executed=PIPELINES[kind],
    )


def run_job(
    spec: JobSpec, source=None, *, store=None, cancel=None
) -> PartitionResult:
    """Run one partitioning job described by ``spec``.

    Parameters
    ----------
    spec:
        The frozen job description (:func:`~repro.runtime.spec.make_job`
        is the convenient builder).
    source:
        The input to partition — anything
        :func:`~repro.stream.reader.open_edge_source` accepts.  May be
        omitted for ``path``/``dataset`` inputs, where the spec itself
        names the source.
    store:
        Optional :class:`~repro.runtime.store.ArtifactStore`.  When
        given and the input is content-addressable, a cache hit returns
        the saved result without executing any stage, and a miss
        persists the computed result for next time.
    cancel:
        Optional :class:`threading.Event`-like object.  When set, the
        run raises :class:`~repro.errors.JobCancelledError` at the next
        stage boundary; a cancelled run persists nothing, so an
        identical resubmit recomputes from scratch.
    """
    validate_spec(spec)
    resolved = source if source is not None else _default_source(spec)
    digest = None
    key = None
    if store is not None and spec.cacheable():
        from repro.runtime.store import input_digest

        digest = input_digest(spec, resolved)
        if digest is not None:
            key = store.cache_key(spec, digest)
            lookup = time.perf_counter()
            cached = store.get(key, spec)
            if cached is not None:
                tracer = get_tracer()
                with tracer.span(
                    "partition", algo=spec.algo, k=spec.k,
                    source=str(resolved), cached=True,
                ):
                    with tracer.span("cache_hit", key=key):
                        pass
                cached.runtime_s = time.perf_counter() - lookup
                return cached
    _check_cancel(cancel, spec, "planning")
    result = _execute(spec, resolved, cancel=cancel)
    if key is not None:
        store.put(key, result, digest)
    return result
