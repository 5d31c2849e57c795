"""Shared test configuration.

Hypothesis is tuned for determinism in CI: fixed derandomization keeps
flaky shrink-search noise out of the suite while the explicit seeds in
the generators keep the workloads reproducible.

The session-scoped ``shm_leak_gate`` fixture is the local half of the CI
leak gate: every shared-memory segment the suite creates (``psm_*`` in
``/dev/shm``) must be unlinked by the time the session ends — a survivor
means some driver's ``finally`` failed to unlink, which on 3.10–3.12
nothing else would ever clean up (the resource tracker is deliberately
kept out of the loop; see :mod:`repro.parallel.shm`).  Segments that
other live processes create meanwhile are theirs, not the session's
(:func:`shm_leaks.leaked_segments`).
"""

import pytest
from hypothesis import HealthCheck, settings

from shm_leaks import leaked_segments, psm_segments

settings.register_profile(
    "repro",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("repro")


@pytest.fixture(scope="session", autouse=True)
def shm_leak_gate():
    """Fail the session if any shared-memory segment outlives the tests."""
    before = psm_segments()
    yield
    leaked = leaked_segments(before)
    assert not leaked, (
        f"tests leaked shared-memory segments: {leaked} — some "
        f"SharedState owner skipped its finally unlink"
    )
