"""Decorator-based registry of streaming-algorithm adapters.

An algorithm class decorates itself with
:func:`register_streaming_algorithm` and is from then on discoverable
by name (``--algo help`` in the CLI prints :func:`algorithm_catalog`),
constructible by :func:`create_algorithm`, and hashable into a
:class:`~repro.runtime.spec.JobSpec` via its declared constructor
parameters (:attr:`AlgorithmInfo.params`, which
:func:`~repro.runtime.api.validate_spec` also checks ``algo_params``
against).  New algorithms — the ROADMAP's buffered HeiStream-style
partitioner, for one — register one adapter and need no factory edit,
driver class or result type.

This module is a leaf on purpose: it imports nothing from
:mod:`repro.stream`, so both the spec layer and the adapter module can
depend on it without cycles.  The built-in adapters live in
:mod:`repro.stream.driver`; importing that module populates the
registry (:func:`ensure_builtins_registered` does it lazily for
callers that start from :mod:`repro.runtime`).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "AlgorithmInfo",
    "algorithm_catalog",
    "algorithm_info",
    "algorithm_names",
    "create_algorithm",
    "ensure_builtins_registered",
    "register_streaming_algorithm",
]


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registered streaming algorithm: its class and declared knobs."""

    #: canonical table name (``--algo`` spelling, case-insensitive match)
    name: str
    #: the :class:`~repro.stream.driver.StreamingAlgorithm` subclass
    factory: type
    #: ``(param, default)`` pairs from the constructor signature
    params: tuple[tuple[str, object], ...]
    #: first docstring line, shown by ``--algo help``
    summary: str


_ALGORITHMS: dict[str, AlgorithmInfo] = {}


def register_streaming_algorithm(name: str):
    """Class decorator: register a streaming algorithm under ``name``.

    The constructor signature is introspected once at registration; its
    keyword parameters (with defaults) become the algorithm's declared
    parameter set, used both for the ``--algo help`` listing and for
    canonicalizing :class:`~repro.runtime.spec.JobSpec` hashes.
    """

    def decorate(cls: type) -> type:
        for existing in _ALGORITHMS:
            if existing.lower() == name.lower():
                raise ConfigurationError(
                    f"streaming algorithm {name!r} is already registered"
                )
        signature = inspect.signature(cls.__init__)
        params = tuple(
            (parameter.name, parameter.default)
            for parameter in signature.parameters.values()
            if parameter.name != "self"
            and parameter.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
        )
        doc = inspect.getdoc(cls) or ""
        summary = doc.splitlines()[0].strip() if doc else ""
        _ALGORITHMS[name] = AlgorithmInfo(
            name=name, factory=cls, params=params, summary=summary
        )
        return cls

    return decorate


def ensure_builtins_registered() -> None:
    """Import the built-in adapters so the registry is populated."""
    import repro.stream.driver  # noqa: F401  (registers on import)


def algorithm_names() -> tuple[str, ...]:
    """Canonical names of every registered algorithm, in registration order."""
    ensure_builtins_registered()
    return tuple(_ALGORITHMS)


def algorithm_info(name: str) -> AlgorithmInfo:
    """Case-insensitive registry lookup; raises on unknown names."""
    ensure_builtins_registered()
    for info in _ALGORITHMS.values():
        if info.name.lower() == name.lower():
            return info
    raise ConfigurationError(
        f"unknown streaming algorithm {name!r}; available: "
        f"{', '.join(_ALGORITHMS)}"
    )


def create_algorithm(name: str, **kwargs):
    """Instantiate a registered streaming algorithm from its table name."""
    return algorithm_info(name).factory(**kwargs)


def algorithm_catalog() -> str:
    """Human-readable listing of every registered algorithm and its knobs.

    This is what ``repro partition --algo help`` prints; ``HEP`` is
    listed first because the two-phase pipeline is not a
    :class:`~repro.stream.driver.StreamingAlgorithm` adapter but the
    planner's other pipeline shape.
    """
    ensure_builtins_registered()
    lines = ["registered algorithms (--algo NAME, case-insensitive):", ""]
    lines.append(
        "  HEP           two-phase NE++ + informed HDRF pipeline "
        "(tau/memory-budget knobs)"
    )
    for info in _ALGORITHMS.values():
        knobs = ", ".join(
            f"{param}={default!r}" for param, default in info.params
        )
        lines.append(f"  {info.name:<13} {info.summary}")
        if knobs:
            lines.append(f"  {'':<13}   params: {knobs}")
    return "\n".join(lines)
