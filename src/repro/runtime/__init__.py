"""The runtime layer: declarative jobs run by one runner.

``repro.runtime`` is the one way to run a partitioning job — HEP or
any registered baseline, in process or on worker processes::

    JobSpec  --run_job-->  PartitionResult

* :class:`~repro.runtime.spec.JobSpec` — a frozen, canonically
  serializable job description with a stable content hash,
* :func:`~repro.runtime.api.run_job` — validates the spec and calls
  its pipeline's stages (:data:`~repro.runtime.stages.PIPELINES`: six
  for HEP, three for every other algorithm), or serves the result from
  a content-addressed :class:`~repro.runtime.store.ArtifactStore`
  without recomputing,
* :mod:`~repro.runtime.stages` — the stage bodies; the ``stream``
  stage runs in process or on worker processes by ``spec.workers``,
* :mod:`~repro.runtime.registry` — the decorator-based algorithm
  registry the adapters register into.

Every caller — the CLI, ``repro serve``, the experiments, the benches
— runs a job the same way:
``run_job(make_job("HEP", "g.bin", 8, memory_budget=400_000))``.
"""

from repro.runtime.api import run_job, validate_spec
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
)
from repro.runtime.stages import PIPELINES, pipeline_kind
from repro.runtime.store import ArtifactStore, input_digest

__all__ = [
    "AlgorithmInfo",
    "ArtifactStore",
    "InputSpec",
    "JobSpec",
    "PIPELINES",
    "PartitionResult",
    "SPEC_VERSION",
    "algorithm_catalog",
    "algorithm_info",
    "algorithm_names",
    "create_algorithm",
    "input_digest",
    "make_job",
    "pipeline_kind",
    "register_streaming_algorithm",
    "run_job",
    "validate_spec",
]
