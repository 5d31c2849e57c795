"""The runtime layer: declarative jobs, explicit plans, pluggable executors.

``repro.runtime`` is the one way to run an out-of-core job — a
streaming baseline or HEP, in process or on worker processes::

    JobSpec  --plan_job-->  Plan  --run_job + Executor-->  PartitionResult

* :class:`~repro.runtime.spec.JobSpec` — a frozen, canonically
  serializable job description with a stable content hash,
* :func:`~repro.runtime.plan.plan_job` — lowers a spec to an explicit
  stage DAG over the stage registry,
* :mod:`~repro.runtime.executor` — in-process vs worker-pool
  strategies for the passes that have both forms,
* :func:`~repro.runtime.api.run_job` — runs the plan (or serves the
  result from a content-addressed
  :class:`~repro.runtime.store.ArtifactStore` without recomputing),
* :mod:`~repro.runtime.registry` — the decorator-based streaming
  algorithm registry the adapters register into.

Every caller — the CLI, ``repro serve``, the experiments, the benches
— runs a job the same way:
``run_job(make_job("HEP", "g.bin", 8, memory_budget=400_000))``.
"""

from repro.runtime.api import run_job, validate_spec
from repro.runtime.executor import (
    Executor,
    InProcessExecutor,
    PoolExecutor,
    select_executor,
)
from repro.runtime.plan import (
    PIPELINES,
    Plan,
    STAGE_REGISTRY,
    Stage,
    pipeline_kind,
    plan_job,
    register_stage,
)
from repro.runtime.registry import (
    AlgorithmInfo,
    algorithm_catalog,
    algorithm_info,
    algorithm_names,
    create_algorithm,
    register_streaming_algorithm,
)
from repro.runtime.result import PartitionResult
from repro.runtime.spec import (
    SPEC_VERSION,
    InputSpec,
    JobSpec,
    make_job,
    spec_fields,
)
from repro.runtime.store import ArtifactStore, input_digest

__all__ = [
    "AlgorithmInfo",
    "ArtifactStore",
    "Executor",
    "InProcessExecutor",
    "InputSpec",
    "JobSpec",
    "PIPELINES",
    "PartitionResult",
    "Plan",
    "PoolExecutor",
    "SPEC_VERSION",
    "STAGE_REGISTRY",
    "Stage",
    "algorithm_catalog",
    "algorithm_info",
    "algorithm_names",
    "create_algorithm",
    "input_digest",
    "make_job",
    "pipeline_kind",
    "plan_job",
    "register_stage",
    "register_streaming_algorithm",
    "run_job",
    "select_executor",
    "spec_fields",
    "validate_spec",
]
