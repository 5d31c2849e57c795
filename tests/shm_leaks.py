"""Shared-memory leak check for the test session and for single tests.

Every segment the package creates is named ``psm_<creator pid>_<8 hex>``
(:func:`repro.parallel.shm._create_untracked`).  A segment that
appeared since a check began is reported when its pid is this
process's own (a leak of the code under test) or belongs to no live
process (an orphan whose creator died without unlinking it).  A
segment of another live process, such as a benchmark running on the
same host, or a name without a pid, is not this process's to report.
"""

from __future__ import annotations

import os
from pathlib import Path


def psm_segments() -> set[str] | None:
    """Names of the ``psm_*`` segments now, or ``None`` without /dev/shm."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return None
    return {p.name for p in shm_dir.glob("psm_*")}


def _pid_alive(pid: int) -> bool:
    """True when a process with ``pid`` exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by another user
    return True


def leaked_segments(
    before: set[str] | None, after: set[str] | None = None
) -> list[str]:
    """Segments in ``after - before`` this process or a dead one created.

    ``after`` defaults to the segments live now; ``before`` is ``None``
    where the platform has no ``/dev/shm`` (nothing to check).
    """
    if before is None:
        return []
    if after is None:
        after = psm_segments() or set()
    leaked = []
    for name in sorted(after - before):
        pid, sep, _ = name[len("psm_"):].partition("_")
        if not sep or not pid.isdigit() or int(pid) < 1:
            continue
        if int(pid) == os.getpid() or not _pid_alive(int(pid)):
            leaked.append(name)
    return leaked
