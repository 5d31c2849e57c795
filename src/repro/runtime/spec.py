"""Declarative, frozen job specifications with stable content hashes.

A :class:`JobSpec` is the runtime's single description of "one
partitioning job": what to read (:class:`InputSpec`), which algorithm
with which parameters, ``k``, the memory budget, and the execution
shape (workers/batch/scan workers).  Two properties make it the
substrate for the content-addressed artifact store
(:mod:`repro.runtime.store`) and the future ``repro.serve`` job queue:

* **canonical serialization** — :meth:`JobSpec.to_dict` /
  :meth:`JobSpec.canonical_json` emit one sorted-key JSON form per
  spec; ``algo_params`` are sorted and merged over the registered
  defaults at construction, so keyword order and elided defaults never
  produce distinct spellings of the same job, and
* **a stable content hash** — :meth:`JobSpec.content_hash` digests only
  the *semantic* fields (those that can change the assignment).  Pure
  I/O knobs (``prefetch``, ``mmap``), scan parallelism
  (``metrics_workers`` — bit-identical by the equivalence suites),
  spill placement, and pool plumbing
  (``mp_context``, ``timeout``) are excluded, so equivalent runs share
  a cache entry.  ``workers``/``batch`` *are* semantic: the BSP
  schedule's staleness window changes assignments.

The input *path* is deliberately not hashed — the artifact store keys
on ``content_hash + input digest``, so renaming a file never splits
the cache while changing its bytes always does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.core.tau import DEFAULT_TAU_GRID
from repro.errors import ConfigurationError
from repro.runtime.registry import algorithm_info
from repro.stream.reader import DEFAULT_CHUNK_SIZE
from repro.stream.workers import DEFAULT_WORKER_BATCH, DEFAULT_WORKER_TIMEOUT

__all__ = [
    "InputSpec", "JobSpec", "SPEC_VERSION", "declared_params", "make_job",
]

#: bumped whenever the canonical form changes meaning (invalidates caches)
SPEC_VERSION = 1

#: HEP's own algo_params: the phase-two HDRF knobs
_HEP_PARAM_DEFAULTS = (("eps", 1.0), ("lam", 1.1))


def declared_params(algo: str) -> dict[str, object] | None:
    """``{param: default}`` that ``algo`` declares; ``None`` if unknown.

    HEP declares its phase-two HDRF knobs; a registered streaming
    algorithm declares its adapter's constructor parameters
    (:attr:`~repro.runtime.registry.AlgorithmInfo.params`).
    """
    if algo.upper() == "HEP":
        return dict(_HEP_PARAM_DEFAULTS)
    try:
        return dict(algorithm_info(algo).params)
    except ConfigurationError:
        return None


@dataclass(frozen=True)
class InputSpec:
    """Where the edges come from and how they are chunked.

    ``kind`` is one of ``"path"`` (edge file or shard manifest on
    disk), ``"dataset"`` (a named Table 3 stand-in, regenerated
    deterministically), ``"graph"`` (an in-memory
    :class:`~repro.graph.edgelist.Graph` passed out-of-band), or
    ``"opaque"`` (an already-open edge source; not content-addressable).
    """

    kind: str
    path: str | None = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    order: str = "natural"
    seed: int = 0
    prefetch: int = 0
    mmap: bool = False

    @classmethod
    def from_source(
        cls,
        source,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        order: str = "natural",
        seed: int = 0,
        prefetch: int = 0,
        mmap: bool = False,
    ) -> "InputSpec":
        """Classify anything ``open_edge_source`` accepts into a spec."""
        common = dict(
            chunk_size=int(chunk_size), order=order, seed=int(seed),
            prefetch=int(prefetch), mmap=bool(mmap),
        )
        if isinstance(source, (str, Path)):
            text = str(source)
            from repro.graph import datasets

            if text.upper() in datasets.available() and not Path(text).exists():
                return cls(kind="dataset", path=text.upper(), **common)
            return cls(kind="path", path=text, **common)
        from repro.graph.edgelist import Graph

        if isinstance(source, Graph):
            return cls(kind="graph", path=None, **common)
        return cls(kind="opaque", path=None, **common)

    def to_dict(self) -> dict:
        """Canonical plain-dict form (JSON-ready, no numpy types)."""
        return {
            "kind": self.kind,
            "path": self.path,
            "chunk_size": int(self.chunk_size),
            "order": self.order,
            "seed": int(self.seed),
            "prefetch": int(self.prefetch),
            "mmap": bool(self.mmap),
        }

    def semantic_dict(self) -> dict:
        """The result-determining subset (no path, no I/O-only knobs)."""
        return {
            "kind": self.kind,
            "chunk_size": int(self.chunk_size),
            "order": self.order,
            "seed": int(self.seed),
        }


def _plain(value):
    """Coerce a parameter value to a stable JSON-serializable form."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    return repr(value)


@dataclass(frozen=True)
class JobSpec:
    """One partitioning job, declaratively: input + algorithm + shape.

    ``algo`` is ``"HEP"`` or a registered streaming-algorithm name
    (:mod:`repro.runtime.registry`); the planner lowers HEP specs to
    the six-stage pipeline and everything else to the three-stage
    streaming pipeline.  ``workers >= 1`` selects the
    :class:`~repro.runtime.executor.PoolExecutor` (BSP worker
    processes); ``workers == 0`` runs in process.
    """

    algo: str
    k: int
    input: InputSpec
    algo_params: tuple[tuple[str, object], ...] = ()
    alpha: float = 1.0
    seed: int = 0
    # HEP knobs (ignored by the streaming pipeline)
    tau: float | None = None
    memory_budget: int | None = None
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    id_bytes: int = 4
    buffer_size: int | None = None
    spill_dir: str | None = None
    spill_compression: str | None = None
    # execution shape
    workers: int = 0
    batch: int = DEFAULT_WORKER_BATCH
    metrics_workers: int = 0
    mp_context: str | None = None
    timeout: float = DEFAULT_WORKER_TIMEOUT
    # trace options (observational only, never hashed)
    trace_path: str | None = None
    trace_memory: str | None = None

    def __post_init__(self) -> None:
        """Normalize to the canonical form (sorted, default-merged params)."""
        object.__setattr__(self, "tau_grid", tuple(self.tau_grid))
        given = {str(name): value for name, value in self.algo_params}
        # An unknown algo keeps its params as given; validate_spec
        # rejects the spec before anything runs.
        defaults = declared_params(self.algo) or {}
        merged = {**defaults, **given}
        object.__setattr__(
            self,
            "algo_params",
            tuple(sorted((name, value) for name, value in merged.items())),
        )

    # -- canonical forms ---------------------------------------------------

    @property
    def chunk_size(self) -> int:
        """Convenience mirror of ``input.chunk_size``."""
        return self.input.chunk_size

    @property
    def params(self) -> dict:
        """``algo_params`` as a plain dict (stage/executor convenience)."""
        return dict(self.algo_params)

    def to_dict(self) -> dict:
        """Full canonical plain-dict form, every field included."""
        return {
            "version": SPEC_VERSION,
            "algo": self.algo,
            "k": int(self.k),
            "input": self.input.to_dict(),
            "algo_params": {
                name: _plain(value) for name, value in self.algo_params
            },
            "alpha": float(self.alpha),
            "seed": int(self.seed),
            "tau": None if self.tau is None else float(self.tau),
            "memory_budget": (
                None if self.memory_budget is None else int(self.memory_budget)
            ),
            "tau_grid": [float(tau) for tau in self.tau_grid],
            "id_bytes": int(self.id_bytes),
            "buffer_size": (
                None if self.buffer_size is None else int(self.buffer_size)
            ),
            "spill_dir": self.spill_dir,
            "spill_compression": self.spill_compression,
            "workers": int(self.workers),
            "batch": int(self.batch),
            "metrics_workers": int(self.metrics_workers),
            "mp_context": self.mp_context,
            "timeout": float(self.timeout),
            "trace_path": self.trace_path,
            "trace_memory": self.trace_memory,
        }

    def canonical_json(self) -> str:
        """One JSON spelling per spec: sorted keys, no whitespace."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def semantic_dict(self) -> dict:
        """The subset of fields that can change the assignment.

        Everything excluded here is pinned bit-identical by the
        equivalence suites (scan parallelism, prefetch/mmap I/O, spill
        placement, pool plumbing, tracing).
        """
        return {
            "version": SPEC_VERSION,
            "algo": self.algo.upper(),
            "algo_params": {
                name: _plain(value) for name, value in self.algo_params
            },
            "k": int(self.k),
            "alpha": float(self.alpha),
            "seed": int(self.seed),
            "input": self.input.semantic_dict(),
            "tau": None if self.tau is None else float(self.tau),
            "memory_budget": (
                None if self.memory_budget is None else int(self.memory_budget)
            ),
            "tau_grid": [float(tau) for tau in self.tau_grid],
            "id_bytes": int(self.id_bytes),
            "buffer_size": (
                None if self.buffer_size is None else int(self.buffer_size)
            ),
            "workers": int(self.workers),
            "batch": int(self.batch),
        }

    def content_hash(self) -> str:
        """Stable sha256 over the canonical JSON of the semantic fields."""
        payload = json.dumps(
            self.semantic_dict(), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256()
        digest.update(f"repro-jobspec-v{SPEC_VERSION}:".encode("utf-8"))
        digest.update(payload.encode("utf-8"))
        return digest.hexdigest()

    def cacheable(self) -> bool:
        """Whether the input is content-addressable (opaque sources aren't)."""
        return self.input.kind in ("path", "dataset", "graph")

    def with_input(self, **changes) -> "JobSpec":
        """Copy of this spec with ``input`` fields replaced."""
        return replace(self, input=replace(self.input, **changes))


def make_job(
    algo: str,
    source,
    k: int,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    order: str = "natural",
    seed: int = 0,
    prefetch: int = 0,
    mmap: bool = False,
    algo_params=(),
    **options,
) -> JobSpec:
    """Build a :class:`JobSpec` from a source object plus keyword knobs.

    The ergonomic front door the CLI, experiments, and benches use:
    ``source`` is classified by :meth:`InputSpec.from_source`,
    ``algo_params`` accepts a dict or ``(name, value)`` pairs, and
    ``metrics_workers`` defaults to ``workers`` when a worker count is
    given (the scan passes use the streaming phase's parallelism).
    """
    input_spec = InputSpec.from_source(
        source, chunk_size=chunk_size, order=order, seed=seed,
        prefetch=prefetch, mmap=mmap,
    )
    if isinstance(algo_params, dict):
        params = tuple(algo_params.items())
    else:
        params = tuple(algo_params)
    workers = int(options.get("workers", 0))
    if workers >= 1 and "metrics_workers" not in options:
        options["metrics_workers"] = workers
    return JobSpec(
        algo=algo, k=int(k), input=input_spec, algo_params=params, **options
    )


def spec_fields() -> tuple[str, ...]:
    """Field names of :class:`JobSpec` (doc/tooling helper)."""
    return tuple(f.name for f in fields(JobSpec))
