"""Tests for the repro.runtime layer: specs, hashing, pipelines, and cache.

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
from repro.graph import write_binary_edgelist, write_text_edgelist
from repro.graph.generators import chung_lu
from repro.obs import Tracer, set_tracer
from repro.runtime import (
    ArtifactStore,
    InputSpec,
    JobSpec,
    algorithm_names,
    create_algorithm,
    input_digest,
    make_job,
    register_streaming_algorithm,
    run_job,
    validate_spec,
)
from repro.stream import DEFAULT_WORKER_BATCH

#: pins the canonical hash of ``make_job("HDRF", "OK", 4)``.  If this
#: assertion ever fails, the canonical form changed meaning: bump
#: SPEC_VERSION (which re-keys every cache entry) instead of editing
#: the constant.
GOLDEN_HDRF_HASH = (
    "e162e634cea2715715c750b9fbb300cd4f0fdb6ea6505c02c38b8b9dd568e6d2"
)


@pytest.fixture(scope="module")
def graph():
    return chung_lu(300, mean_degree=6, exponent=2.2, seed=11, name="rt")


@pytest.fixture(scope="module")
def edge_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "rt.bin"
    write_binary_edgelist(graph, path)
    return path


@pytest.fixture(scope="module")
def text_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("rt") / "rt.txt"
    write_text_edgelist(graph, path)
    return path


@pytest.fixture(scope="module")
def manifest_file(graph, tmp_path_factory):
    from repro.stream import write_sharded_edges

    path = tmp_path_factory.mktemp("rt") / "rt.manifest.json"
    write_sharded_edges(graph, path, num_shards=2)
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
        variant = make_job("HDRF", "OK", 4, spill_dir=str(tmp_path))
        assert variant.content_hash() == base.content_hash()

    def test_explicit_default_batch_equals_elided_batch(self):
        elided = make_job("HDRF", "OK", 4, workers=2)
        explicit = make_job("HDRF", "OK", 4, workers=2,
                            batch=DEFAULT_WORKER_BATCH)
        assert explicit.canonical_json() == elided.canonical_json()
        assert explicit.content_hash() == elided.content_hash()

    def test_sequential_spec_carries_no_batch(self):
        payload = json.loads(make_job("HDRF", "OK", 4).canonical_json())
        assert payload["workers"] == 0 and payload["batch"] is None

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


_HEP_STAGES = ("count", "select_tau", "split", "phase_one", "stream",
               "metrics")


class TestPipelines:
    @pytest.mark.parametrize(
        "algo,options,stages",
        [
            ("HEP", {"tau": 1.0}, _HEP_STAGES),
            ("HEP", {"tau": 1.0, "workers": 2}, _HEP_STAGES),
            ("HDRF", {"workers": 2}, ("count", "stream", "metrics")),
        ],
        ids=["hep", "hep-mw2", "hdrf-mw2"],
    )
    def test_cold_run_executes_its_pipeline(
        self, edge_file, algo, options, stages
    ):
        result = run_job(make_job(algo, edge_file, 4, chunk_size=256,
                                  **options))
        assert not result.cache_hit
        assert result.stages_executed == stages


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
            ("NoSuch", {}, "unknown algorithm 'NoSuch'"),
            ("NE", {"seed": 1}, "takes no parameter 'seed'"),
            ("Greedy", {"passes": 2}, "takes no parameter 'passes'"),
            ("HEP", {"passes": 2}, "takes no parameter 'passes'"),
            ("Restreaming", {"passes": 0}, "passes must be >= 1"),
        ],
        ids=["NoSuch", "NE", "Greedy-passes", "HEP-passes",
             "Restreaming-passes0"],
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

    def test_multi_worker_hdrf_needs_a_file(
        self, graph, text_file, tmp_path
    ):
        """Multi-worker HDRF deals shard files to its workers: a Graph
        input (a TypeError mid-run), a dataset name (a missing-file
        error mid-run) or a text edge list (a planning error mid-run)
        is rejected before anything is hashed.  HEP's workers read the
        h2h spill, so a Graph still serves them."""
        store = ArtifactStore(tmp_path / "cache")
        for source, match in (
            (graph, "edge file or shard manifest"),
            ("OK", "edge file or shard manifest"),
            (text_file, "shard manifests or flat binary edge files"),
        ):
            spec = make_job("HDRF", source, 8, workers=2)
            with pytest.raises(ConfigurationError, match=match):
                run_job(spec, source, store=store)
        assert (store.hits, store.misses) == (0, 0)
        validate_spec(make_job("HEP", graph, 8, tau=1.0, workers=2))

    @pytest.mark.parametrize("order", ["bogus", "shuffled", "random"])
    def test_open_source_takes_natural_order_only(self, edge_file, order):
        """An open source already fixed its order; a spec naming another
        one used to stream every edge in file order regardless."""
        from repro.stream import open_edge_source

        src = open_edge_source(edge_file, 256)
        spec = JobSpec(
            algo="HDRF", k=8,
            input=InputSpec.from_source(src, chunk_size=256, order=order),
        )
        with pytest.raises(
            ConfigurationError, match=f"got order {order!r}"
        ):
            run_job(spec, source=src)

    @pytest.mark.parametrize(
        "algo,params,match",
        [
            ("HDRF", {"eps": 0.0}, "eps must be a finite number > 0"),
            ("HDRF", {"eps": -1.0}, "eps must be a finite number > 0"),
            ("HDRF", {"lam": -2.0}, "lam must be a finite number >= 0"),
            ("HEP", {"lam": float("nan")}, "lam must be a finite number"),
            ("HEP", {"eps": float("inf")}, "eps must be a finite number"),
            ("Restreaming", {"eps": 0.0}, "eps must be a finite number"),
        ],
        ids=["HDRF-eps0", "HDRF-eps-neg", "HDRF-lam-neg", "HEP-lam-nan",
             "HEP-eps-inf", "Restreaming-eps0"],
    )
    def test_out_of_range_balance_params_are_rejected(
        self, edge_file, tmp_path, algo, params, match
    ):
        """``eps <= 0`` scored NaNs (0/0) and a negative ``lam`` rewards
        load; both are rejected before the input is hashed."""
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job(algo, edge_file, 8, algo_params=params)
        with pytest.raises(ConfigurationError, match=match):
            run_job(spec, store=store)
        assert (store.hits, store.misses) == (0, 0)

    @pytest.mark.parametrize(
        "algo,options,flags,match",
        [
            ("HEP", {"tau": 2.0, "memory_budget": 400000},
             ["--tau", "2.0", "--memory-budget", "400000"], "conflict"),
            ("HDRF", {"workers": 2, "memory_budget": 1000},
             ["--workers", "2", "--memory-budget", "1000"],
             "tunes HEP's tau"),
            ("DBH", {"tau": 3.0}, ["--tau", "3.0"], "degree threshold"),
            ("Greedy", {"spill_compression": "zlib"},
             ["--spill-compression", "zlib"], "h2h spill"),
        ],
        ids=["HEP-tau-budget", "HDRF-mw2-budget", "DBH-tau",
             "Greedy-spill-compression"],
    )
    def test_hep_only_knobs_are_rejected(
        self, edge_file, tmp_path, capsys, algo, options, flags, match
    ):
        """Each of these used to run with the knob ignored, under a hash
        of its own; now it is rejected before the input is hashed, and
        the CLI prints the same message."""
        store = ArtifactStore(tmp_path / "cache")
        spec = make_job(algo, edge_file, 8, **options)
        with pytest.raises(ConfigurationError, match=match) as excinfo:
            run_job(spec, store=store)
        assert (store.hits, store.misses) == (0, 0)
        message = str(excinfo.value)
        assert "--" not in message
        rc = main(["partition", str(edge_file), "--k", "8", "--out-of-core",
                   "--algo", algo, *flags])
        assert rc == 1
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize(
        "options,match",
        [
            ({"alpha": 0.0}, "alpha must be >= 1.0"),
            ({"alpha": -1.0}, "alpha must be >= 1.0"),
            ({"alpha": float("nan")}, "alpha must be >= 1.0"),
            ({"spill_compression": "lz4"}, "unknown spill compression"),
            ({"workers": 2.0}, "workers must be an integer >= 0"),
            ({"workers": True}, "workers must be an integer >= 0"),
            ({"workers": 2, "batch": 2.5}, "batch must be an integer >= 1"),
            ({"workers": 2, "batch": True}, "batch must be an integer >= 1"),
            ({"batch": 16}, "it requires workers >= 1"),
            ({"order": "bogus"},
             "support 'natural' or 'shuffled' order, got 'bogus'"),
            ({"order": "random"},
             "support 'natural' or 'shuffled' order, got 'random'"),
            ({"source": "text_file", "order": "shuffled"},
             "text file sources are sequential-only"),
            ({"source": "manifest_file", "order": "shuffled"},
             "sharded sources are sequential-only"),
            ({"algo": "HDRF", "memory_budget": None, "workers": 2,
              "order": "shuffled"},
             "multi-worker HDRF streams its shards in file order"),
            ({"k": 8.9}, "k must be an integer >= 2, got 8.9"),
            ({"algo": "DBH", "memory_budget": None, "k": 8.9},
             "k must be an integer >= 2, got 8.9"),
            ({"k": "8"}, "k must be an integer >= 2, got '8'"),
            ({"k": True}, "k must be an integer >= 2, got True"),
            ({"algo": "HDRF", "memory_budget": None, "workers": 2, "k": 1},
             "k must be an integer >= 2, got 1"),
        ],
        ids=["alpha0", "alpha-neg", "alpha-nan", "codec-lz4",
             "workers-float", "workers-bool", "batch-float", "batch-bool",
             "batch-without-workers", "order-bogus", "order-random-binary",
             "order-shuffled-text", "order-shuffled-manifest",
             "order-shuffled-hdrf-mw2", "k-float", "k-float-dbh", "k-str",
             "k-bool", "k1-hdrf-mw2"],
    )
    def test_unusable_values_are_rejected_up_front(
        self, request, tmp_path, options, match
    ):
        """Each of these used to pass validation and then fail mid-run,
        after the input was hashed, or run under a meaningless tau,
        budget, batch or order; now it is rejected before the input is
        hashed."""
        store = ArtifactStore(tmp_path / "cache")
        options = {"algo": "HEP", "memory_budget": 400_000, **options}
        algo = options.pop("algo")
        source = request.getfixturevalue(options.pop("source", "edge_file"))
        spec = make_job(algo, source, options.pop("k", 8), **options)
        with pytest.raises(ConfigurationError, match=match):
            run_job(spec, store=store)
        assert (store.hits, store.misses) == (0, 0)

    def test_lambda_zero_is_a_valid_spec(self, edge_file):
        result = run_job(make_job("HDRF", edge_file, 4,
                                  algo_params={"lam": 0.0}))
        assert result.num_edges > 0


class TestJobCli:
    def test_job_describe_prints_canonical_json_and_hash(self, capsys):
        rc = main(["job", "describe", "OK", "--k", "4", "--method", "HDRF"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        payload = json.loads(lines[0])
        assert payload["algo"] == "HDRF" and payload["k"] == 4
        assert GOLDEN_HDRF_HASH in out
        assert lines[-1] == "pipeline           : count -> stream -> metrics"

        rc = main(["job", "describe", "OK", "--k", "4",
                   "--memory-budget", "400000"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(lines[0])["algo"] == "HEP"
        assert lines[-1] == (
            "pipeline           : "
            "count -> select_tau -> split -> phase_one -> stream -> metrics"
        )

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
            (["--algo", "Restreaming", "--passes", "2"], "stream passes"),
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
