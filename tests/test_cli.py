"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.graph import Graph, write_binary_edgelist, write_text_edgelist
from repro.runtime import make_job, validate_spec


@pytest.fixture()
def small_graph_file(tmp_path):
    g = Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (4, 0), (4, 1)],
        num_vertices=5,
    )
    path = tmp_path / "g.txt"
    write_text_edgelist(g, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition", "OK"])
        assert args.k == 32 and args.method == "HEP"
        assert args.tau is None  # resolved to 10.0 on the HEP paths

    def test_tau_rejected_for_non_hep(self, small_graph_file, capsys):
        # Both paths run the job, so the runtime's spec validation words
        # the error.
        for extra in ([], ["--out-of-core"]):
            rc = main(
                ["partition", str(small_graph_file), "--k", "2",
                 "--algo", "HDRF", "--tau", "2.0", *extra]
            )
            assert rc == 1
            assert "tau is HEP's degree threshold" in capsys.readouterr().err


class TestPartitionCommand:
    def test_partition_text_file(self, small_graph_file, capsys):
        rc = main(["partition", str(small_graph_file), "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replication factor" in out

    def test_partition_binary_file(self, tmp_path, capsys):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (0, 3)], num_vertices=4)
        path = tmp_path / "g.bin"
        write_binary_edgelist(g, path)
        rc = main(["partition", str(path), "--k", "2", "--method", "DBH"])
        assert rc == 0

    def test_partition_writes_output(self, small_graph_file, tmp_path, capsys):
        out_file = tmp_path / "parts.txt"
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--output", str(out_file)]
        )
        assert rc == 0
        parts = np.loadtxt(out_file, dtype=int)
        assert parts.shape == (8,)
        assert set(parts.tolist()) <= {0, 1}

    def test_partition_dataset_name(self, capsys):
        rc = main(["partition", "LJ", "--k", "4", "--method", "DBH"])
        assert rc == 0

    def test_unknown_graph_errors(self, capsys):
        rc = main(["partition", "nonexistent-thing", "--k", "2"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_compare(self, small_graph_file, capsys):
        rc = main(
            ["compare", str(small_graph_file), "--k", "2",
             "--partitioners", "DBH", "HDRF", "Restreaming", "HEP"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for row in ("DBH", "HDRF", "ReHDRF-3", "HEP-10"):
            assert row in out

    def test_select_tau(self, capsys):
        rc = main(["select-tau", "LJ", "--budget-kib", "100000", "--k", "4"])
        assert rc == 0
        assert "tau=" in capsys.readouterr().out

    def test_datasets(self, capsys):
        rc = main(["datasets"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("LJ", "OK", "TW", "WDC"):
            assert name in out

    def test_experiment_unknown(self, capsys):
        rc = main(["experiment", "figure99"])
        assert rc == 2

    def test_experiment_table3(self, capsys):
        rc = main(["experiment", "table3"])
        assert rc == 0
        assert "Table 3" in capsys.readouterr().out


class TestOutOfCore:
    def test_partition_out_of_core_file(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--tau", "1.0", "--chunk-size", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "out-of-core" in out
        assert "replication factor" in out

    def test_partition_out_of_core_matches_in_memory(
        self, small_graph_file, tmp_path, capsys
    ):
        in_mem = tmp_path / "a.txt"
        ooc = tmp_path / "b.txt"
        assert main(
            ["partition", str(small_graph_file), "--k", "2", "--tau", "1.0",
             "--output", str(in_mem)]
        ) == 0
        assert main(
            ["partition", str(small_graph_file), "--k", "2", "--tau", "1.0",
             "--out-of-core", "--chunk-size", "2", "--output", str(ooc)]
        ) == 0
        assert np.array_equal(
            np.loadtxt(in_mem, dtype=int), np.loadtxt(ooc, dtype=int)
        )

    def test_partition_memory_budget(self, capsys):
        rc = main(
            ["partition", "LJ", "--k", "4", "--out-of-core",
             "--memory-budget", "1000000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "memory budget" in out

    def test_out_of_core_spill_dir(self, small_graph_file, tmp_path):
        spill_dir = tmp_path / "spill"
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--tau", "0.5", "--spill-dir", str(spill_dir)]
        )
        assert rc == 0
        assert list(spill_dir.iterdir()) == []  # the spill is deleted

    def test_unusable_spill_dir_is_an_error_line(
        self, small_graph_file, tmp_path, capsys
    ):
        """An OSError (a spill dir below a regular file) prints
        ``error: ...`` and returns 1, like a ReproError."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--tau", "1.0", "--spill-dir", str(blocker / "x")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not-a-dir" in err

    def test_out_of_core_rejects_non_streaming_methods(
        self, small_graph_file, capsys
    ):
        """The in-memory baselines (NE, METIS, ...) run out of core too:
        their job gathers the stream."""
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--method", "NE"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "partitioner        : NE (out-of-core)" in out
        assert "replication factor" in out


class TestOutOfCoreBaselines:
    """`partition --algo <name> --out-of-core` drives any baseline."""

    @pytest.mark.parametrize("algo", ["HDRF", "greedy", "DBH", "Grid"])
    def test_each_baseline_runs(self, small_graph_file, capsys, algo):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--algo", algo, "--chunk-size", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "out-of-core" in out and "replication factor" in out

    def test_restreaming_with_passes(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--algo", "restreaming", "--passes", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "stream passes      : 2" in out

    def test_baseline_matches_in_memory(self, small_graph_file, tmp_path):
        in_mem = tmp_path / "a.txt"
        ooc = tmp_path / "b.txt"
        assert main(
            ["partition", str(small_graph_file), "--k", "2",
             "--method", "HDRF", "--output", str(in_mem)]
        ) == 0
        assert main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--algo", "HDRF", "--chunk-size", "2", "--output", str(ooc)]
        ) == 0
        assert np.array_equal(
            np.loadtxt(in_mem, dtype=int), np.loadtxt(ooc, dtype=int)
        )

    def test_budget_rejected_for_baselines(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--algo", "DBH", "--memory-budget", "100000"]
        )
        assert rc == 1
        assert "tau" in capsys.readouterr().err

    def test_spill_flags_rejected_for_baselines(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--algo", "HDRF", "--spill-compression", "zlib"]
        )
        assert rc == 1
        assert "spill" in capsys.readouterr().err

    def test_hep_spill_compression(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--tau", "0.5", "--spill-compression", "zlib"]
        )
        assert rc == 0
        assert "zlib" in capsys.readouterr().out


class TestOnePartitionPath:
    """HEP, HEP-<tau> and every registered algorithm run through run_job
    whether or not --out-of-core streams the file."""

    @pytest.fixture()
    def power_law_file(self, tmp_path):
        from repro.graph import read_binary_edgelist
        from repro.graph.generators import chung_lu

        path = tmp_path / "pl.bin"
        write_binary_edgelist(
            chung_lu(200, mean_degree=6, exponent=2.2, seed=3), path
        )
        return path, read_binary_edgelist(path)

    def test_hep_name_equals_tau_flag(self, power_law_file, tmp_path, capsys):
        path, _ = power_law_file
        runs = {
            "tau": ["--tau", "1"],
            "tau-ooc": ["--tau", "1", "--out-of-core"],
            "name": ["--method", "HEP-1"],
            "name-ooc": ["--method", "HEP-1", "--out-of-core"],
        }
        ids = {}
        for label, flags in runs.items():
            out = tmp_path / f"{label}.txt"
            assert main(["partition", str(path), "--k", "4",
                         "--output", str(out), *flags]) == 0
            assert "HEP-1" in capsys.readouterr().out
            ids[label] = np.loadtxt(out, dtype=int)
        for label, parts in ids.items():
            assert np.array_equal(parts, ids["tau"]), label

    def test_job_describe_hep_name(self, power_law_file, capsys):
        path, _ = power_law_file
        assert main(["job", "describe", str(path), "--k", "4",
                     "--method", "HEP-10"]) == 0
        named = capsys.readouterr().out
        assert main(["job", "describe", str(path), "--k", "4",
                     "--tau", "10"]) == 0
        assert named == capsys.readouterr().out

    def test_hep_name_and_tau_flag_conflict(self, power_law_file, capsys):
        path, _ = power_law_file
        rc = main(["partition", str(path), "--k", "4", "--method", "HEP-10",
                   "--tau", "2"])
        assert rc == 1
        assert "carries its own tau" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["HEP", "NE"])
    def test_shards_dir_covers_the_graph(
        self, power_law_file, tmp_path, capsys, method
    ):
        from repro.graph import read_binary_edgelist

        path, graph = power_law_file
        shards = tmp_path / "shards"
        assert main(["partition", str(path), "--k", "4", "--method", method,
                     "--shards-dir", str(shards)]) == 0
        files = sorted(shards.glob("part-*.bin"))
        assert len(files) == 4
        edges = np.vstack([
            read_binary_edgelist(f, num_vertices=graph.num_vertices).edges
            for f in files
        ])
        assert sorted(map(tuple, edges.tolist())) == sorted(
            map(tuple, graph.edges.tolist())
        )

    def test_output_sidecar_round_trips(
        self, power_law_file, tmp_path, capsys
    ):
        """--output writes the sidecar read_assignment needs, on both
        paths."""
        from repro.graph import read_assignment

        path, graph = power_law_file
        for label, extra in (("mem", []), ("ooc", ["--out-of-core"])):
            out = tmp_path / f"{label}.txt"
            assert main(["partition", str(path), "--k", "4", "--algo", "HDRF",
                         "--output", str(out), *extra]) == 0
            back = read_assignment(graph, out)
            assert back.k == 4 and back.num_unassigned == 0

    def test_text_with_self_loop_and_duplicate(self, tmp_path, capsys):
        """Loading canonicalizes the file, so only the chunked reader
        needs canonical input."""
        path = tmp_path / "raw.txt"
        path.write_text("0 1\n1 1\n1 2\n2 0\n0 1\n2 3\n")
        out = tmp_path / "parts.txt"
        assert main(["partition", str(path), "--k", "2",
                     "--output", str(out)]) == 0
        assert "m=4" in capsys.readouterr().out
        assert np.loadtxt(out, dtype=int).shape == (4,)

    def test_baseline_names_every_job_flag(self, small_graph_file, capsys):
        rc = main(["partition", str(small_graph_file), "--k", "2",
                   "--method", "NE", "--tau", "2", "--workers", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        with pytest.raises(ConfigurationError) as excinfo:
            validate_spec(make_job("NE", small_graph_file, 2, tau=2.0,
                                   workers=2))
        assert err == f"error: {excinfo.value}\n" and "'NE'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "{g}", "--method", "FOO"],
            ["partition", "{g}", "--method", "HEP-abc"],
            ["compare", "{g}", "--partitioners", "FOO"],
        ],
        ids=["partition-unknown", "partition-malformed", "compare-unknown"],
    )
    def test_unknown_or_malformed_method(self, small_graph_file, capsys, argv):
        rc = main([arg.format(g=small_graph_file) for arg in argv])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestExtsortCommand:
    def test_extsort_then_partition(self, tmp_path, capsys):
        src = tmp_path / "wi.bin"
        out = tmp_path / "wi-degree.bin"
        assert main(["datasets", "--export", "LJ", "--format", "binary",
                     "--output", str(src)]) == 0
        rc = main(["extsort", str(src), str(out), "--order", "degree",
                   "--chunk-size", "1000"])
        assert rc == 0
        assert "sort runs" in capsys.readouterr().out
        assert out.exists() and out.stat().st_size == src.stat().st_size
        assert main(["partition", str(out), "--k", "4", "--out-of-core",
                     "--algo", "HDRF"]) == 0

    def test_extsort_unknown_source(self, capsys):
        rc = main(["extsort", "missing-thing", "out.bin"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unusable_output_dir_is_an_error_line(self, tmp_path, capsys):
        """An OSError (an output below a regular file) prints
        ``error: ...`` and returns 1, like a ReproError."""
        src = tmp_path / "g.bin"
        assert main(["datasets", "--export", "LJ", "--format", "binary",
                     "--output", str(src)]) == 0
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        capsys.readouterr()
        rc = main(["extsort", str(src), str(blocker / "x" / "out.bin"),
                   "--order", "degree"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not-a-dir" in err

    def test_extsort_in_place_rejected(self, tmp_path, capsys):
        src = tmp_path / "g.bin"
        assert main(["datasets", "--export", "LJ", "--format", "binary",
                     "--output", str(src)]) == 0
        size = src.stat().st_size
        rc = main(["extsort", str(src), str(src), "--order", "natural"])
        assert rc == 1
        assert src.stat().st_size == size


class TestShardedCli:
    """datasets --format sharded, extsort --shards."""

    def test_sharded_export_then_partition(self, tmp_path, capsys):
        manifest = tmp_path / "lj.manifest.json"
        rc = main(["datasets", "--export", "LJ", "--format", "sharded",
                   "--shards", "3", "--output", str(manifest)])
        assert rc == 0
        assert "3 shards" in capsys.readouterr().out
        assert main(["partition", str(manifest), "--k", "4",
                     "--out-of-core", "--algo", "HDRF"]) == 0
        # The manifest also feeds the in-memory path.
        assert main(["partition", str(manifest), "--k", "4",
                     "--method", "DBH"]) == 0

    def test_sharded_export_compressed(self, tmp_path, capsys):
        manifest = tmp_path / "lj.manifest.json"
        rc = main(["datasets", "--export", "LJ", "--format", "sharded",
                   "--shards", "2", "--compress", "zlib",
                   "--output", str(manifest)])
        assert rc == 0
        assert "zlib" in capsys.readouterr().out
        assert main(["partition", str(manifest), "--k", "4",
                     "--out-of-core", "--tau", "1.0"]) == 0

    @pytest.mark.parametrize(
        "command",
        [["partition", "--out-of-core", "--algo", "DBH", "--k", "4"],
         ["scan"]],
        ids=["partition", "scan"],
    )
    def test_corrupt_zlib_frame_names_the_shard(
        self, tmp_path, capsys, command
    ):
        """A zlib frame that does not inflate is one error naming the
        shard, not a bare zlib.error traceback."""
        manifest = tmp_path / "wi.manifest.json"
        assert main(["datasets", "--export", "WI", "--format", "sharded",
                     "--shards", "2", "--compress", "zlib",
                     "--output", str(manifest)]) == 0
        shard = tmp_path / "wi.shard-0000.bin"
        data = bytearray(shard.read_bytes())
        data[40] ^= 0xFF  # inside the first frame's deflate payload
        shard.write_bytes(bytes(data))
        capsys.readouterr()
        assert main([command[0], str(manifest), *command[1:]]) == 1
        assert capsys.readouterr().err.startswith(f"error: {shard}: ")

    def test_compress_requires_sharded_format(self, capsys):
        rc = main(["datasets", "--export", "LJ", "--format", "binary",
                   "--compress", "zlib"])
        assert rc == 1
        assert "sharded" in capsys.readouterr().err

    def test_extsort_sharded_output(self, tmp_path, capsys):
        src = tmp_path / "lj.bin"
        assert main(["datasets", "--export", "LJ", "--format", "binary",
                     "--output", str(src)]) == 0
        manifest = tmp_path / "deg.manifest.json"
        rc = main(["extsort", str(src), str(manifest), "--order", "degree",
                   "--shards", "4", "--compress", "zlib"])
        assert rc == 0
        assert "shards" in capsys.readouterr().out
        assert main(["partition", str(manifest), "--k", "4",
                     "--out-of-core", "--algo", "Greedy"]) == 0

    def test_extsort_compress_requires_shards(self, tmp_path, capsys):
        src = tmp_path / "lj.bin"
        assert main(["datasets", "--export", "LJ", "--format", "binary",
                     "--output", str(src)]) == 0
        rc = main(["extsort", str(src), str(tmp_path / "x.bin"),
                   "--compress", "zlib"])
        assert rc == 1
        assert "--shards" in capsys.readouterr().err

    def test_text_named_edges_errors(self, tmp_path, capsys):
        """Regression: a text edge list named *.edges used to be parsed
        as binary and silently partition garbage."""
        path = tmp_path / "snap.edges"
        path.write_text("0 1\n1 2\n2 0\n")
        rc = main(["partition", str(path), "--k", "2", "--out-of-core",
                   "--algo", "HDRF"])
        assert rc == 1
        assert "text" in capsys.readouterr().err


class TestInMemoryRestreaming:
    def test_passes_honored_in_memory(self, small_graph_file, capsys):
        """Regression: --passes must reach the in-memory partitioner."""
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--method", "Restreaming", "--passes", "5"]
        )
        assert rc == 0
        assert "ReHDRF-5" in capsys.readouterr().out

    def test_passes_rejected_for_other_methods(self, small_graph_file, capsys):
        """Regression: --passes must not be silently dropped elsewhere."""
        for extra in ([], ["--out-of-core"]):
            rc = main(
                ["partition", str(small_graph_file), "--k", "2",
                 "--algo", "HDRF", "--passes", "5", *extra]
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert "'HDRF' takes no parameter 'passes'" in err


class TestDatasetsExport:
    def test_export_binary_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "lj.bin"
        rc = main(["datasets", "--export", "LJ", "--format", "binary",
                   "--output", str(out)])
        assert rc == 0
        from repro.graph import datasets, read_binary_edgelist

        expected = datasets.load("LJ")
        got = read_binary_edgelist(out)
        assert np.array_equal(got.edges, expected.edges)

    def test_export_text_feeds_out_of_core(self, tmp_path, capsys):
        out = tmp_path / "lj.txt"
        assert main(["datasets", "--export", "LJ", "--format", "text",
                     "--output", str(out)]) == 0
        rc = main(["partition", str(out), "--k", "4", "--out-of-core",
                   "--tau", "1.0"])
        assert rc == 0

    def test_export_unknown_dataset_errors(self, capsys):
        rc = main(["datasets", "--export", "NOPE"])
        assert rc == 1

    def test_memory_budget_runs_in_memory(
        self, small_graph_file, tmp_path, capsys
    ):
        """The budget is a job knob, so the loaded graph honors it too."""
        outputs = []
        for extra in ([], ["--out-of-core"]):
            out = tmp_path / f"parts{len(outputs)}.txt"
            rc = main(
                ["partition", str(small_graph_file), "--k", "2",
                 "--memory-budget", "1000000", "--output", str(out), *extra]
            )
            assert rc == 0
            assert "memory budget" in capsys.readouterr().out
            outputs.append(np.loadtxt(out, dtype=int))
        assert np.array_equal(*outputs)

    def test_shards_dir_rejected_out_of_core(
        self, small_graph_file, tmp_path, capsys
    ):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--out-of-core",
             "--shards-dir", str(tmp_path / "shards")]
        )
        assert rc == 1
        assert "shards" in capsys.readouterr().err

    def test_in_memory_hep_accepts_stream_params(
        self, small_graph_file, tmp_path, capsys
    ):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2", "--tau", "0.5",
             "--spill-compression", "zlib",
             "--spill-dir", str(tmp_path / "spill")]
        )
        assert rc == 0

    def test_stream_params_rejected_for_non_hep(self, small_graph_file, capsys):
        rc = main(
            ["partition", str(small_graph_file), "--k", "2",
             "--method", "DBH", "--spill-compression", "zlib"]
        )
        assert rc == 1
        assert "HEP" in capsys.readouterr().err


@pytest.mark.slow
class TestMultiWorkerCli:
    @pytest.fixture()
    def sharded_manifest(self, tmp_path):
        from repro.graph.generators import chung_lu
        from repro.stream import write_sharded_edges

        g = chung_lu(200, mean_degree=6, exponent=2.2, seed=3, name="cli")
        return write_sharded_edges(
            g, tmp_path / "cli.manifest.json", num_shards=4
        )

    @pytest.fixture()
    def binary_file(self, tmp_path):
        from repro.graph.generators import chung_lu

        g = chung_lu(200, mean_degree=6, exponent=2.2, seed=3, name="cli")
        path = tmp_path / "cli.bin"
        write_binary_edgelist(g, path)
        return path

    def test_workers_hdrf_on_manifest(self, sharded_manifest, capsys):
        rc = main(
            ["partition", str(sharded_manifest.path), "--k", "4",
             "--out-of-core", "--algo", "HDRF", "--workers", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "HDRF-mw2" in out
        assert "2 worker processes" in out
        assert "bsp schedule" in out

    def test_workers_hep_on_binary(self, binary_file, capsys):
        rc = main(
            ["partition", str(binary_file), "--k", "4", "--out-of-core",
             "--workers", "2", "--batch", "16", "--tau", "1.0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "HEP-1" in out and "2 worker processes" in out

    def test_workers_writes_assignment(self, sharded_manifest, tmp_path, capsys):
        out_path = tmp_path / "parts.txt"
        rc = main(
            ["partition", str(sharded_manifest.path), "--k", "4",
             "--out-of-core", "--algo", "HDRF", "--workers", "2",
             "--output", str(out_path)]
        )
        assert rc == 0
        parts = np.loadtxt(out_path, dtype=np.int64)
        assert parts.shape[0] == sharded_manifest.num_edges
        assert parts.min() >= 0 and parts.max() < 4

    def test_workers_requires_out_of_core(self, binary_file, capsys):
        """Multi-worker HDRF deals shard files to its workers, so the
        loaded graph is rejected with the runtime's message."""
        rc = main(["partition", str(binary_file), "--k", "4",
                   "--algo", "HDRF", "--workers", "2"])
        assert rc == 1
        assert "edge file or shard manifest" in capsys.readouterr().err

    def test_hep_workers_run_in_memory(self, binary_file, tmp_path, capsys):
        """HEP's workers read the h2h spill, so the loaded graph serves
        them, with the out-of-core run's ids."""
        outputs = []
        for extra in ([], ["--out-of-core"]):
            out = tmp_path / f"parts{len(outputs)}.txt"
            rc = main(["partition", str(binary_file), "--k", "4",
                       "--workers", "2", "--tau", "1", "--output", str(out),
                       *extra])
            assert rc == 0
            assert "2 worker processes" in capsys.readouterr().out
            outputs.append(np.loadtxt(out, dtype=int))
        assert np.array_equal(*outputs)

    def test_batch_requires_workers(self, binary_file, capsys):
        rc = main(["partition", str(binary_file), "--k", "4",
                   "--out-of-core", "--batch", "8"])
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            "error: batch sizes the per-worker superstep; it requires "
            "workers >= 1"
        )

    def test_workers_rejects_other_algos(self, binary_file, capsys):
        rc = main(["partition", str(binary_file), "--k", "4",
                   "--out-of-core", "--algo", "DBH", "--workers", "2"])
        assert rc == 1
        assert "HEP or HDRF" in capsys.readouterr().err

    def test_workers_hdrf_rejects_hep_only_flags(self, binary_file, capsys):
        rc = main(["partition", str(binary_file), "--k", "4",
                   "--out-of-core", "--algo", "HDRF", "--workers", "2",
                   "--memory-budget", "100000"])
        assert rc == 1
        assert "tunes HEP's tau" in capsys.readouterr().err

    def test_workers_matches_no_workers_oracle(self, sharded_manifest, tmp_path, capsys):
        """CLI multi-worker output equals the in-process BSP schedule."""
        from repro.parallel import bsp_hdrf_stream
        from repro.partition.base import capacity_bound
        from repro.partition.state import StreamingState
        from repro.stream import ShardedEdgeSource, plan_worker_segments
        from repro.stream.scan import scan_source

        out_path = tmp_path / "parts.txt"
        rc = main(
            ["partition", str(sharded_manifest.path), "--k", "4",
             "--out-of-core", "--algo", "HDRF", "--workers", "4",
             "--batch", "4", "--output", str(out_path)]
        )
        assert rc == 0
        got = np.loadtxt(out_path, dtype=np.int64)
        src = ShardedEdgeSource(sharded_manifest)
        stats = scan_source(src)
        edges = np.vstack([c.pairs for c in src])
        _, streams, _, _ = plan_worker_segments(sharded_manifest.path, 4)
        state = StreamingState(
            stats.num_vertices, 4,
            capacity_bound(stats.num_edges, 4, 1.0),
            exact_degrees=stats.degrees,
        )
        oracle = np.full(stats.num_edges, -1, dtype=np.int32)
        bsp_hdrf_stream(
            state, edges, np.arange(stats.num_edges), oracle, 4,
            batch=4, streams=streams,
        )
        assert np.array_equal(got, oracle)


class TestScanCommand:
    @pytest.fixture()
    def binary_graph(self, tmp_path):
        g = Graph.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (4, 0), (4, 1)],
            num_vertices=6,
        )
        path = tmp_path / "g.bin"
        write_binary_edgelist(g, path)
        return g, path

    def test_scan_stats_only(self, binary_graph, capsys):
        g, path = binary_graph
        rc = main(["scan", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"m={g.num_edges:,}" in out
        assert "sequential" in out

    def test_scan_with_parts(self, binary_graph, tmp_path, capsys):
        g, path = binary_graph
        parts_file = tmp_path / "parts.txt"
        rc = main(
            ["partition", str(path), "--k", "2", "--algo", "HDRF",
             "--out-of-core", "--output", str(parts_file)]
        )
        assert rc == 0
        partition_out = capsys.readouterr().out
        rc = main(["scan", str(path), "--parts", str(parts_file), "--k", "2"])
        assert rc == 0
        scan_out = capsys.readouterr().out
        # The scan's quality lines must reproduce the partition report's.
        for line in partition_out.splitlines():
            if "replication factor" in line or "edge balance" in line:
                assert line in scan_out
        assert "unassigned edges   : 0" in scan_out

    def test_scan_with_memory_budget(self, binary_graph, tmp_path, capsys):
        g, path = binary_graph
        parts_file = tmp_path / "parts.txt"
        np.savetxt(parts_file, np.zeros(g.num_edges, dtype=np.int64), fmt="%d")
        rc = main(
            ["scan", str(path), "--parts", str(parts_file),
             "--memory-budget", "64"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # k defaults to max id + 1 = 1; every covered vertex once.
        assert "replication factor : 1.0000" in out


class TestTraceFlags:
    def test_partition_trace_then_summarize(
        self, small_graph_file, tmp_path, capsys
    ):
        trace = tmp_path / "run.trace.jsonl"
        parts_a = tmp_path / "a.txt"
        parts_b = tmp_path / "b.txt"
        rc = main(["partition", str(small_graph_file), "--k", "2",
                   "--out-of-core", "--output", str(parts_a),
                   "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace written" in out
        assert trace.exists()

        rc = main(["trace", "summarize", str(trace)])
        assert rc == 0
        summary = capsys.readouterr().out
        assert "phase attribution" in summary
        assert "partition" in summary

        # Tracing never changes the assignment.
        rc = main(["partition", str(small_graph_file), "--k", "2",
                   "--out-of-core", "--output", str(parts_b)])
        assert rc == 0
        capsys.readouterr()
        np.testing.assert_array_equal(
            np.loadtxt(parts_a, dtype=np.int64),
            np.loadtxt(parts_b, dtype=np.int64),
        )

    def test_scan_trace_with_memory_probe(
        self, small_graph_file, tmp_path, capsys
    ):
        trace = tmp_path / "scan.trace.jsonl"
        rc = main(["scan", str(small_graph_file),
                   "--trace", str(trace), "--trace-memory", "rss"])
        assert rc == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        assert "mem_delta" in capsys.readouterr().out

    def test_trace_memory_requires_trace(self, small_graph_file, capsys):
        rc = main(["scan", str(small_graph_file), "--trace-memory", "rss"])
        assert rc == 1
        assert "--trace-memory requires --trace" in capsys.readouterr().err

    def test_summarize_rejects_non_trace_file(self, small_graph_file, capsys):
        rc = main(["trace", "summarize", str(small_graph_file)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
