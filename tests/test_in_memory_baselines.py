"""The in-memory baselines run as jobs, like every other table name.

NE, NE++, SNE, DNE, METIS, ADWISE and Random are registered algorithms
whose adapter gathers the stream and runs the ``Partitioner`` class on
the gathered graph.  For each name:

* the job's parts equal the class's, through the CLI in memory and
  ``--out-of-core`` from a binary file,
* ``run_job`` and ``POST /jobs`` refuse a stream order or an ``alpha``
  the class would never see, with one message, before any input is
  hashed,
* ``job describe`` prints the three-stage pipeline.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import NePlusPlusPartitioner
from repro.errors import ConfigurationError
from repro.graph import read_binary_edgelist, write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.partition import (
    AdwisePartitioner,
    DnePartitioner,
    MetisPartitioner,
    NePartitioner,
    RandomStreamPartitioner,
    SnePartitioner,
)
from repro.runtime import ArtifactStore, make_job, run_job
from repro.serve import ArtifactCache, JobManager, create_app

CLASSES = {
    "NE": NePartitioner,
    "NE++": NePlusPlusPartitioner,
    "SNE": SnePartitioner,
    "DNE": DnePartitioner,
    "METIS": MetisPartitioner,
    "ADWISE": AdwisePartitioner,
    "Random": RandomStreamPartitioner,
}

K = 4


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inmem") / "pl.bin"
    write_binary_edgelist(
        chung_lu(200, mean_degree=6, exponent=2.2, seed=3), path
    )
    return path


async def _post_jobs(app, payload):
    """``POST /jobs`` through the ASGI callable: ``(status, body)``."""
    inbox = [{"type": "http.request", "more_body": False,
              "body": json.dumps(payload).encode("utf-8")}]
    sent = []

    async def receive():
        return inbox.pop(0)

    async def send(message):
        sent.append(message)

    scope = {"type": "http", "method": "POST", "path": "/jobs",
             "query_string": b""}
    await app(scope, receive, send)
    body = b"".join(message.get("body", b"") for message in sent[1:])
    return sent[0]["status"], json.loads(body)


@pytest.mark.parametrize("name", list(CLASSES))
def test_in_memory_baseline_is_a_job(name, edge_file, tmp_path, capsys):
    want = CLASSES[name]().partition(read_binary_edgelist(edge_file), K).parts
    for label, extra in (("mem", []), ("ooc", ["--out-of-core"])):
        out = tmp_path / f"{label}.txt"
        assert main(["partition", str(edge_file), "--k", str(K),
                     "--method", name, "--output", str(out), *extra]) == 0
        assert np.array_equal(np.loadtxt(out, dtype=np.int64), want), label
    capsys.readouterr()

    store = ArtifactStore(tmp_path / "cache")
    refused = []
    for source, options in (("OK", {"order": "random"}),
                            (edge_file, {"order": "shuffled"}),
                            (edge_file, {"alpha": 1.5})):
        with pytest.raises(
            ConfigurationError, match="partitions the gathered graph"
        ) as excinfo:
            run_job(make_job(name, source, K, **options), store=store)
        payload = {"source": str(source), "algo": name, "k": K, **options}
        refused.append((payload, str(excinfo.value)))
    assert (store.hits, store.misses) == (0, 0)

    async def scenario():
        manager = JobManager(ArtifactStore(tmp_path / "served"),
                             loop=asyncio.get_running_loop())
        app = create_app(manager, ArtifactCache(manager.store))
        for payload, message in refused:
            status, doc = await _post_jobs(app, payload)
            assert (status, doc["error"]) == (
                400, f"invalid job spec: {message}"
            )
        assert manager.jobs == {}
        assert (manager.store.hits, manager.store.misses) == (0, 0)
        await manager.shutdown()

    asyncio.run(scenario())

    assert main(["job", "describe", str(edge_file), "--k", str(K),
                 "--method", name]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "pipeline           : count -> stream -> metrics"
