"""Tests for the repro.runtime layer: specs, hashing, plans, and cache.

The load-bearing properties:

* :meth:`~repro.runtime.spec.JobSpec.content_hash` is *stable* — a
  golden hash pins the canonical form, because silently changing it
  would orphan every existing artifact-store entry,
* hashing is insensitive to spelling (kwarg order, elided defaults,
  algo case) but sensitive to anything that can change the assignment
  (budget, workers, batch, k, chunk size),
* a second :func:`~repro.runtime.api.run_job` of an identical spec is
  served from the :class:`~repro.runtime.store.ArtifactStore`
  bit-identically, with **zero** partitioning stages executed —
  asserted both on the result and on the trace span tree.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.graph import write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.obs import Tracer, set_tracer
from repro.runtime import (
    PIPELINES,
    ArtifactStore,
    InputSpec,
    JobSpec,
    algorithm_names,
    create_algorithm,
    input_digest,
    make_job,
    plan_job,
    register_streaming_algorithm,
    run_job,
)

#: pins the canonical hash of ``make_job("HDRF", "OK", 4)``.  If this
#: assertion ever fails, the canonical form changed meaning: bump
#: SPEC_VERSION (which re-keys every cache entry) instead of editing
#: the constant.
GOLDEN_HDRF_HASH = (
    "b8f8d8b1fdaa40c9dd581e4bfcb808c6958901ff7d1e2631024b6daf68fe9c8e"
)


@pytest.fixture(scope="module")
def graph():
    return chung_lu(300, mean_degree=6, exponent=2.2, seed=11, name="rt")


@pytest.fixture(scope="module")
def edge_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "rt.bin"
    write_binary_edgelist(graph, path)
    return path


def _traced_run(spec, **kwargs):
    """Run a job under a collect-mode tracer; return (result, spans)."""
    tracer = Tracer(None)
    previous = set_tracer(tracer)
    try:
        result = run_job(spec, **kwargs)
    finally:
        set_tracer(previous)
    return result, tracer.drain()


class TestContentHash:
    def test_golden_hash_is_stable(self):
        assert make_job("HDRF", "OK", 4).content_hash() == GOLDEN_HDRF_HASH

    def test_algo_case_does_not_split_the_hash(self):
        assert make_job("hdrf", "OK", 4).content_hash() == GOLDEN_HDRF_HASH

    def test_kwarg_order_is_canonicalized(self):
        a = make_job("HDRF", "OK", 4, algo_params=(("lam", 2.0), ("eps", 0.5)))
        b = make_job("HDRF", "OK", 4, algo_params=(("eps", 0.5), ("lam", 2.0)))
        assert a.canonical_json() == b.canonical_json()
        assert a.content_hash() == b.content_hash()

    def test_explicit_defaults_equal_elided_defaults(self):
        explicit = make_job("HDRF", "OK", 4,
                            algo_params={"eps": 1.0, "lam": 1.1})
        assert explicit.content_hash() == GOLDEN_HDRF_HASH

    def test_semantic_knobs_split_the_hash(self):
        base = make_job("HEP", "OK", 4, memory_budget=1_000_000)
        distinct = {
            base.content_hash(),
            make_job("HEP", "OK", 4, memory_budget=2_000_000).content_hash(),
            make_job("HEP", "OK", 8, memory_budget=1_000_000).content_hash(),
            make_job("HEP", "OK", 4, memory_budget=1_000_000,
                     workers=2).content_hash(),
            make_job("HEP", "OK", 4, memory_budget=1_000_000,
                     workers=4).content_hash(),
            make_job("HEP", "OK", 4, memory_budget=1_000_000,
                     workers=2, batch=16).content_hash(),
            make_job("HEP", "OK", 4, memory_budget=1_000_000,
                     chunk_size=512).content_hash(),
        }
        assert len(distinct) == 7

    def test_io_and_scan_knobs_do_not_split_the_hash(self, tmp_path):
        base = make_job("HDRF", "OK", 4)
        for variant in (
            make_job("HDRF", "OK", 4, prefetch=4),
            make_job("HDRF", "OK", 4, mmap=True),
            make_job("HDRF", "OK", 4, metrics_workers=2),
            make_job("HDRF", "OK", 4, spill_dir=str(tmp_path)),
            make_job("HDRF", "OK", 4, trace_path="t.jsonl"),
        ):
            assert variant.content_hash() == base.content_hash()

    def test_input_path_is_not_hashed(self, edge_file):
        a = make_job("HDRF", edge_file, 4)
        b = dataclasses.replace(
            a, input=dataclasses.replace(a.input, path="elsewhere.bin")
        )
        assert a.content_hash() == b.content_hash()

    def test_canonical_json_is_sorted_and_total(self):
        spec = make_job("HEP", "OK", 4, tau=2.0)
        payload = json.loads(spec.canonical_json())
        assert list(payload) == sorted(payload)
        assert payload["algo"] == "HEP" and payload["tau"] == 2.0

    def test_spec_is_frozen(self):
        spec = make_job("HDRF", "OK", 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.k = 8


class TestPlanner:
    def test_hep_plan_has_six_stages(self):
        plan = plan_job(make_job("HEP", "OK", 4))
        assert [s.name for s in plan.stages] == [
            "count", "select_tau", "split", "phase_one", "stream", "metrics",
        ]

    def test_streaming_plan_has_three_stages(self):
        plan = plan_job(make_job("Greedy", "OK", 4))
        assert [s.name for s in plan.stages] == ["count", "stream", "metrics"]
        assert plan.describe() == "count -> stream -> metrics"

    def test_pipelines_registry_covers_both_kinds(self):
        assert set(PIPELINES) == {"hep", "stream"}


class TestRegistry:
    def test_builtin_algorithms_are_discoverable(self):
        names = algorithm_names()
        for name in ("HDRF", "Greedy", "DBH", "Grid", "Restreaming"):
            assert name in names

    def test_create_is_case_insensitive(self):
        algo = create_algorithm("hdrf", lam=1.5)
        assert algo.name == "HDRF"

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ConfigurationError):
            register_streaming_algorithm("hdrf")(object)


class TestArtifactCache:
    def test_second_run_is_a_bit_identical_cache_hit(self, edge_file, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job("HDRF", edge_file, 8, chunk_size=256)

        cold, cold_spans = _traced_run(spec, store=store)
        assert not cold.cache_hit
        assert cold.stages_executed == ("count", "stream", "metrics")
        assert (store.hits, store.misses) == (0, 1)

        warm, warm_spans = _traced_run(spec, store=store)
        assert warm.cache_hit
        # Zero partitioning stages executed, also visible in the trace:
        # only the root span and the cache_hit marker, no pipeline spans.
        assert warm.stages_executed == ()
        assert {s["name"] for s in warm_spans} == {"partition", "cache_hit"}
        assert (store.hits, store.misses) == (1, 1)

        assert np.array_equal(warm.parts, cold.parts)
        assert np.array_equal(warm.loads, cold.loads)
        assert warm.replication_factor == cold.replication_factor
        assert warm.edge_balance == cold.edge_balance
        assert warm.job_hash == spec.content_hash()

    def test_cold_run_records_pipeline_spans(self, edge_file, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job("HDRF", edge_file, 8, chunk_size=256)
        _, spans = _traced_run(spec, store=store)
        names = {s["name"] for s in spans}
        assert {"count_pass", "stream_pass", "metrics_pass"} <= names

    def test_hep_cache_round_trips_tau_and_breakdown(self, edge_file, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job("HEP", edge_file, 4, tau=1.0, chunk_size=256)
        cold = run_job(spec, store=store)
        warm = run_job(spec, store=store)
        assert warm.cache_hit
        assert warm.tau == cold.tau
        assert warm.breakdown == cold.breakdown
        assert np.array_equal(warm.parts, cold.parts)

    def test_renaming_the_input_keeps_the_entry(
        self, graph, edge_file, tmp_path
    ):
        store = ArtifactStore(tmp_path / "cache")
        run_job(make_job("HDRF", edge_file, 8, chunk_size=256), store=store)
        renamed = tmp_path / "renamed.bin"
        renamed.write_bytes(edge_file.read_bytes())
        warm = run_job(
            make_job("HDRF", renamed, 8, chunk_size=256), store=store
        )
        assert warm.cache_hit and store.hits == 1

    def test_changing_input_bytes_misses(self, edge_file, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        run_job(make_job("HDRF", edge_file, 8, chunk_size=256), store=store)
        other = chung_lu(300, mean_degree=6, exponent=2.2, seed=12, name="rt2")
        other_file = tmp_path / "other.bin"
        write_binary_edgelist(other, other_file)
        spec = make_job("HDRF", other_file, 8, chunk_size=256)
        result = run_job(spec, store=store)
        assert not result.cache_hit and store.misses == 2
        assert input_digest(spec, other_file) != input_digest(
            make_job("HDRF", edge_file, 8, chunk_size=256), edge_file
        )

    def test_multi_worker_cache_round_trips_the_report(
        self, graph, tmp_path
    ):
        from repro.stream import write_sharded_edges

        manifest = tmp_path / "rt.manifest.json"
        write_sharded_edges(graph, manifest, num_shards=2)
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job("HDRF", manifest, 8, workers=2, chunk_size=256)
        cold = run_job(spec, store=store)
        warm = run_job(spec, store=store)
        assert warm.cache_hit
        assert warm.report.supersteps == cold.report.supersteps
        assert np.array_equal(warm.parts, cold.parts)

    def test_opaque_sources_are_never_cached(self, edge_file, tmp_path):
        from repro.stream import open_edge_source

        store = ArtifactStore(tmp_path / "cache")
        spec = JobSpec(
            algo="HDRF", k=8,
            input=InputSpec.from_source(
                open_edge_source(edge_file, 256), chunk_size=256
            ),
        )
        assert not spec.cacheable()
        result = run_job(spec, source=edge_file, store=store)
        assert not result.cache_hit
        assert (store.hits, store.misses) == (0, 0)


class TestSpecValidation:
    @pytest.mark.parametrize("algo", ["Greedy", "DBH"])
    def test_multi_worker_job_must_name_hep_or_hdrf(
        self, edge_file, tmp_path, capsys, algo
    ):
        """A multi-worker Greedy/DBH job is rejected, never run as HDRF
        and cached under the wrong hash; the CLI shows the same message."""
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job(algo, edge_file, 8, workers=2, batch=8)
        with pytest.raises(
            ConfigurationError, match="supports HEP or HDRF"
        ) as excinfo:
            run_job(spec, store=store)
        assert (store.hits, store.misses) == (0, 0)
        message = str(excinfo.value)
        assert repr(algo) in message and "--" not in message
        rc = main(["partition", str(edge_file), "--k", "8", "--out-of-core",
                   "--algo", algo, "--workers", "2", "--batch", "8"])
        assert rc == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize(
        "algo,params,match",
        [
            ("NoSuch", {}, "streaming baseline"),
            ("NE", {}, "streaming baseline"),
            ("Greedy", {"passes": 2}, "takes no parameter 'passes'"),
            ("HEP", {"passes": 2}, "takes no parameter 'passes'"),
        ],
        ids=["NoSuch", "NE", "Greedy-passes", "HEP-passes"],
    )
    def test_unknown_algorithm_or_parameter_is_rejected(
        self, edge_file, tmp_path, capsys, algo, params, match
    ):
        """Rejected before the input is hashed or a stage runs — never
        run with the parameter dropped — and, for an algorithm name the
        CLI can spell, with the CLI's message."""
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job(algo, edge_file, 8, algo_params=params)
        with pytest.raises(ConfigurationError, match=match) as excinfo:
            run_job(spec, store=store)
        assert (store.hits, store.misses) == (0, 0)
        message = str(excinfo.value)
        assert "--" not in message
        if params:
            return
        for name in ("HEP", *algorithm_names()):
            assert name in message
        rc = main(["partition", str(edge_file), "--k", "8", "--out-of-core",
                   "--algo", algo])
        assert rc == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"


class TestJobCli:
    def test_job_describe_prints_canonical_json_and_hash(self, capsys):
        rc = main(["job", "describe", "OK", "--k", "4", "--method", "HDRF"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        payload = json.loads(lines[0])
        assert payload["algo"] == "HDRF" and payload["k"] == 4
        assert GOLDEN_HDRF_HASH in out
        assert "count -> stream -> metrics" in out

    def test_algo_help_lists_the_registry(self, capsys):
        rc = main(["partition", "OK", "--algo", "help", "--out-of-core"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("HEP", "HDRF", "Restreaming"):
            assert name in out

    def test_cache_requires_out_of_core(self, edge_file, tmp_path, capsys):
        rc = main(
            ["partition", str(edge_file), "--k", "2",
             "--cache", str(tmp_path / "c")]
        )
        assert rc == 1
        assert "--cache requires --out-of-core" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,shape_line",
        [
            (["--memory-budget", "400000"], "memory budget"),
            (["--algo", "Restreaming", "--passes", "2", "--prefetch", "2"],
             "stream passes"),
            (["--algo", "HDRF", "--workers", "2"], "bsp schedule"),
            (["--workers", "2", "--tau", "1.0"], "h2h edges spilled"),
        ],
        ids=["hep-budget", "restreaming", "hdrf-mw2", "hep-mw2"],
    )
    def test_cli_cache_hit_on_second_run(
        self, edge_file, tmp_path, capsys, flags, shape_line
    ):
        """A hit prints the cold run's report: the one printer renders
        from the result alone, and the store round-trips every field it
        reads."""
        argv = ["partition", str(edge_file), "--k", "4", "--out-of-core",
                "--cache", str(tmp_path / "c"), *flags]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache              : miss (stored)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache              : hit" in second

        def stable(report):
            return [line for line in report.splitlines()
                    if not line.startswith(("run-time", "cache"))]

        assert stable(second) == stable(first)
        assert any(line.startswith(shape_line) for line in stable(first))
