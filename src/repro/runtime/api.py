"""``run_job``: the one way to run a partitioning job.

The runner takes a frozen :class:`~repro.runtime.spec.JobSpec`,
validates it (:func:`validate_spec`), plans it
(:func:`~repro.runtime.plan.plan_job`), picks an executor
(:func:`~repro.runtime.executor.select_executor`), and runs the stage
sequence inside one ``partition`` root span, so the observability
suite pins a run's span tree and attributes.  With an
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
from repro.runtime.plan import pipeline_kind, plan_job
from repro.runtime.registry import algorithm_names, create_algorithm
from repro.runtime.result import PartitionResult
from repro.runtime.spec import JobSpec, declared_params
from repro.runtime.stages import RunContext

__all__ = ["run_job", "validate_spec"]


def validate_spec(spec: JobSpec) -> None:
    """Reject a spec the run would fail on or silently misread.

    :func:`run_job` calls this first, and ``repro serve`` calls it at
    submit time, so the CLI, ``run_job`` and ``POST /jobs`` reject the
    same specs with the same messages — before any input is hashed or
    any stage runs.  Beyond the numeric ranges, ``algo`` must be HEP
    or a registered streaming algorithm, and every ``algo_params``
    name must be one that algorithm declares.
    """
    hep = pipeline_kind(spec) == "hep"
    if spec.tau is not None and spec.tau <= 0:
        raise ConfigurationError(f"tau must be positive, got {spec.tau}")
    if spec.memory_budget is not None and spec.memory_budget < 1:
        raise ConfigurationError(
            f"memory_budget must be positive, got {spec.memory_budget}"
        )
    if spec.metrics_workers < 0:
        raise ConfigurationError(
            f"metrics_workers must be >= 0, got {spec.metrics_workers}"
        )
    if spec.workers < 0:
        raise ConfigurationError(
            f"workers must be >= 1, got {spec.workers}"
        )
    if spec.workers >= 1:
        if spec.batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {spec.batch}")
        # The pool executor streams informed HDRF (alone or as HEP's
        # phase two); any other algorithm would silently run as HDRF.
        if not hep and spec.algo.upper() != "HDRF":
            raise ConfigurationError(
                f"multi-worker partitioning supports HEP or HDRF (the "
                f"BSP-parallelizable streaming kernels); got {spec.algo!r}"
            )
        if hep and spec.buffer_size is not None:
            raise ConfigurationError(
                "buffer_size is a sequential scoring window; it cannot "
                "combine with multi-worker streaming"
            )
    declared = declared_params(spec.algo)
    if declared is None:
        raise ConfigurationError(
            f"out-of-core partitioning supports HEP or a streaming "
            f"baseline ({', '.join(algorithm_names())}); got {spec.algo!r}"
        )
    undeclared = sorted(set(spec.params) - set(declared))
    if undeclared:
        raise ConfigurationError(
            f"{spec.algo!r} takes no parameter "
            f"{', '.join(map(repr, undeclared))} "
            f"(declared: {', '.join(declared) or 'none'})"
        )
    if spec.k < 2:
        if hep:
            raise ConfigurationError(
                f"out-of-core HEP requires k >= 2, got {spec.k}"
            )
        if spec.workers >= 1:
            raise ConfigurationError(
                f"multi-worker partitioning requires k >= 2, got {spec.k}"
            )
        raise ConfigurationError(
            f"streaming driver requires k >= 2, got {spec.k}"
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
    """Run the planned stages under the ``partition`` root span."""
    from repro.runtime.executor import select_executor
    from repro.stream.reader import PrefetchingEdgeSource, open_edge_source

    kind = pipeline_kind(spec)
    algo = None
    if kind != "hep" and spec.workers == 0:
        algo = create_algorithm(spec.algo, **spec.params)
    display, result_name = _names(spec, algo)

    ctx = RunContext(spec, source, algorithm=algo)
    if kind == "hep":
        ctx.empty_message = "out-of-core HEP: edge stream is empty"
    elif spec.workers >= 1:
        ctx.empty_message = "multi-worker HDRF: edge stream is empty"
    else:
        ctx.empty_message = f"{algo.name}: edge stream is empty"

    plan = plan_job(spec)
    executor = select_executor(spec)
    tracer = get_tracer()
    start = time.perf_counter()
    attrs: dict = {"algo": display, "k": spec.k}
    if kind != "hep" and spec.workers >= 1:
        attrs["workers"] = spec.workers
    attrs["source"] = str(source)
    with tracer.span("partition", **attrs):
        try:
            # prepare() may spawn a warm worker pool; keeping it inside
            # the try guarantees finish() reaps that pool even when an
            # interrupt lands mid-prepare.
            executor.prepare(spec, ctx)
            src = open_edge_source(
                source, spec.chunk_size, order=spec.input.order,
                seed=spec.input.seed, mmap=spec.input.mmap,
            )
            if spec.input.prefetch > 0:
                src = PrefetchingEdgeSource(src, depth=spec.input.prefetch)
            ctx.src = src
            executor.start(spec, ctx)
            for stage in plan.stages:
                _check_cancel(cancel, spec, f"stage {stage.name!r}")
                stage.fn(spec, ctx, executor)
                ctx.executed.append(stage.name)
        finally:
            executor.finish(spec, ctx)
            ctx.close()
        source_stats = ctx.src.stats() if ctx.src is not None else None
        if tracer.enabled and source_stats:
            tracer.event(
                "source_read", counters=source_stats,
                source=ctx.src.describe(),
            )
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
        buffer_size=spec.buffer_size,
        projected_memory_bytes=ctx.projected_memory_bytes,
        report=ctx.report,
        job_hash=spec.content_hash(),
        cache_hit=False,
        stages_executed=tuple(ctx.executed),
        trace_path=str(spec.trace_path) if spec.trace_path else None,
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
                cached.trace_path = (
                    str(spec.trace_path) if spec.trace_path else None
                )
                return cached
    _check_cancel(cancel, spec, "planning")
    result = _execute(spec, resolved, cancel=cancel)
    if key is not None:
        store.put(key, result, digest)
    return result
