"""The planner: lower a :class:`~repro.runtime.spec.JobSpec` to stages.

A plan is an explicit, ordered stage DAG.  Two pipeline shapes exist
today, both expressed over the same stage registry:

* ``hep``    — ``count -> select_tau -> split -> phase_one -> stream ->
  metrics`` (the two-phase pipeline; ``select_tau`` resolves the
  threshold from a fixed ``tau``, the §4.4 budget sweep, or the 10.0
  default),
* ``stream`` — ``count -> stream -> metrics`` (every streaming
  baseline and the multi-worker informed-HDRF run).

Stages are declared via :func:`register_stage` in
:mod:`repro.runtime.stages`, so a new pass slots
in by registering a stage and inserting its name into a pipeline,
without touching any driver.  Executors
(:mod:`repro.runtime.executor`) supply the stage *strategies* (in
process vs worker pool); the plan itself is execution-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.runtime.spec import JobSpec

__all__ = [
    "PIPELINES",
    "Plan",
    "STAGE_REGISTRY",
    "Stage",
    "pipeline_kind",
    "plan_job",
    "register_stage",
]


@dataclass(frozen=True)
class Stage:
    """One registered pipeline stage: a name plus its implementation.

    ``fn(spec, ctx, executor)`` mutates the run context; ``provides``
    documents the context keys the stage is responsible for (the
    planner's contract with downstream stages).
    """

    name: str
    fn: Callable
    provides: tuple[str, ...] = ()


#: every registered stage, by name (populated by repro.runtime.stages)
STAGE_REGISTRY: dict[str, Stage] = {}

#: stage order per pipeline shape
PIPELINES: dict[str, tuple[str, ...]] = {
    "hep": ("count", "select_tau", "split", "phase_one", "stream", "metrics"),
    "stream": ("count", "stream", "metrics"),
}


def register_stage(name: str, provides: tuple[str, ...] = ()):
    """Function decorator: register a stage implementation under ``name``."""

    def decorate(fn: Callable) -> Callable:
        if name in STAGE_REGISTRY:
            raise ConfigurationError(f"stage {name!r} is already registered")
        STAGE_REGISTRY[name] = Stage(name=name, fn=fn, provides=provides)
        return fn

    return decorate


@dataclass(frozen=True)
class Plan:
    """An ordered stage sequence for one spec (what the executor runs)."""

    kind: str
    stages: tuple[Stage, ...]

    def stage_names(self) -> tuple[str, ...]:
        """The stage names in execution order."""
        return tuple(stage.name for stage in self.stages)

    def describe(self) -> str:
        """``count -> select_tau -> ...`` (CLI/debug convenience)."""
        return " -> ".join(self.stage_names())


def pipeline_kind(spec: JobSpec) -> str:
    """``"hep"`` for the two-phase pipeline, ``"stream"`` otherwise."""
    return "hep" if spec.algo.upper() == "HEP" else "stream"


def plan_job(spec: JobSpec) -> Plan:
    """Lower ``spec`` to its explicit stage DAG."""
    from repro.runtime import stages  # noqa: F401  (registers the stages)

    kind = pipeline_kind(spec)
    return Plan(
        kind=kind,
        stages=tuple(STAGE_REGISTRY[name] for name in PIPELINES[kind]),
    )
