"""One validation site: the CLI, ``run_job`` and ``POST /jobs`` agree.

For random option dicts, ``repro job describe``, ``run_job``'s
:func:`~repro.runtime.api.validate_spec` and the submit-time spec
builder behind ``POST /jobs`` accept or reject alike, and a rejection
carries one message: ``error: {msg}`` on the CLI and
``invalid job spec: {msg}`` from the service.
"""

import asyncio
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ReproError
from repro.graph import write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.runtime import ArtifactStore, make_job, validate_spec
from repro.serve import JobManager, SubmitError

#: HEP, every registered streaming algorithm, an in-memory baseline and
#: a name nobody registered
ALGOS = ["HEP", "HDRF", "Greedy", "DBH", "Grid", "Restreaming", "NE", "FOO"]


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("agree") / "g.bin"
    write_binary_edgelist(chung_lu(60, mean_degree=4, seed=5), path)
    return str(path)


@pytest.fixture(scope="module")
def manager(tmp_path_factory):
    loop = asyncio.new_event_loop()
    store = ArtifactStore(tmp_path_factory.mktemp("agree-store"))
    manager = JobManager(store, loop=loop)
    yield manager
    loop.run_until_complete(manager.shutdown())
    loop.close()


@st.composite
def job_options(draw):
    """``(algo, k, options)``: spec fields named as ``make_job`` takes
    them, ``passes`` standing for ``algo_params={"passes": ...}``."""
    # Mostly in-range values, so most rejections come from combinations.
    options = draw(st.fixed_dictionaries({}, optional={
        "tau": st.sampled_from([0.0, 0.5, 2.0]),
        "memory_budget": st.sampled_from([0, 400_000, 400_000]),
        "spill_compression": st.sampled_from(["zlib", "lz4"]),
        "passes": st.integers(0, 3),
        "workers": st.integers(-1, 2),
        "batch": st.integers(0, 16),
        "chunk_size": st.sampled_from([0, 1, 4096, 4096]),
    }))
    algo = draw(st.sampled_from(ALGOS))
    return algo, draw(st.sampled_from([0, 1, 2, 8, 8, 8])), options


def _cli_verdict(edge_file, algo, k, options):
    argv = ["job", "describe", edge_file, "--k", str(k), "--algo", algo]
    for name, value in options.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        return None
    assert rc == 1 and err.getvalue().startswith("error: ")
    return err.getvalue()[len("error: "):].rstrip("\n")


def _runtime_verdict(edge_file, algo, k, options):
    options = dict(options)
    passes = options.pop("passes", None)
    params = {} if passes is None else {"passes": passes}
    try:
        validate_spec(make_job(algo, edge_file, k, algo_params=params,
                               **options))
    except ReproError as exc:
        return str(exc)
    return None


def _service_verdict(manager, edge_file, algo, k, options):
    payload = {"source": edge_file, "algo": algo, "k": k, **options}
    passes = payload.pop("passes", None)
    if passes is not None:
        payload["algo_params"] = {"passes": passes}
    try:
        manager._build_spec(payload)
    except SubmitError as exc:
        message = str(exc)
        assert message.startswith("invalid job spec: ")
        return message[len("invalid job spec: "):]
    return None


@settings(max_examples=150, deadline=None)
@given(job=job_options())
def test_front_doors_accept_and_reject_alike(edge_file, manager, job):
    algo, k, options = job
    runtime = _runtime_verdict(edge_file, algo, k, options)
    assert _cli_verdict(edge_file, algo, k, options) == runtime
    assert _service_verdict(manager, edge_file, algo, k, options) == runtime
