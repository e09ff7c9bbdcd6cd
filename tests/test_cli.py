"""Tests for the command-line interface (the Dashboard / NeuraViz stand-in)."""

import pytest

from repro.cli import build_parser, main
from repro.serve import DEFAULT_MAX_BATCH, DEFAULT_MAX_DELAY_MS


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "cora"
        assert args.config == "Tile-16"
        assert args.eviction == "rolling"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_invalid_eviction_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--eviction", "never"])

    def test_backend_and_impl_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.backend == "cycle"
        assert not hasattr(args, "impl")  # one numeric path, no selector
        args = build_parser().parse_args(["batch"])
        assert args.backend == "analytic"

    def test_invalid_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "quantum"])

    def test_invalid_impl_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--impl", "numpy"])

    def test_session_flag_defaults(self):
        for command in ("run", "gcn", "sweep", "batch"):
            args = build_parser().parse_args([command])
            assert args.executor == "serial"
            assert args.workers is None
            assert args.cache_dir is None

    def test_invalid_executor_rejected(self):
        for command in ("run", "batch"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--executor", "gpu"])

    def test_unknown_backend_rejected_on_every_subcommand(self):
        for command in ("run", "gcn", "sweep", "batch"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", "quantum"])


class TestCommands:
    def test_datasets_lists_both_suites(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "facebook" in out
        assert "cora" in out
        assert "Table-1" in out and "GNN" in out

    def test_bloat_selected_datasets(self, capsys):
        code = main(["bloat", "--datasets", "facebook", "wiki-Vote",
                     "--max-nodes", "96"])
        assert code == 0
        out = capsys.readouterr().out
        assert "facebook" in out and "wiki-Vote" in out
        assert "bloat_percent" in out

    def test_run_small_workload(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "80",
                     "--config", "Tile-4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wiki-Vote" in out
        assert "True" in out  # verified column

    def test_run_with_output_dir(self, tmp_path, capsys):
        code = main(["--output-dir", str(tmp_path), "run", "--dataset",
                     "wiki-Vote", "--max-nodes", "64", "--config", "Tile-4",
                     "--no-verify"])
        assert code == 0
        saved = list(tmp_path.glob("run_*.csv"))
        assert len(saved) == 1
        assert "cycles" in saved[0].read_text()

    def test_gcn_command(self, capsys):
        code = main(["gcn", "--dataset", "cora", "--max-nodes", "80",
                     "--config", "Tile-4", "--feature-dim", "8",
                     "--hidden-dim", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregation_cycles" in out

    def test_sweep_command_raw(self, capsys):
        code = main(["sweep", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--raw"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Tile-4" in out and "Tile-64" in out

    def test_run_analytic_backend(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "96",
                     "--config", "Tile-4", "--backend", "analytic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "analytic" in out
        assert "cycles" in out

    def test_run_functional_backend(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "functional"])
        assert code == 0
        out = capsys.readouterr().out
        assert "functional" in out
        assert "partial_products" in out

    def test_gcn_analytic_backend(self, capsys):
        code = main(["gcn", "--dataset", "cora", "--max-nodes", "64",
                     "--config", "Tile-4", "--feature-dim", "8",
                     "--hidden-dim", "4", "--backend", "analytic"])
        assert code == 0
        assert "aggregation_cycles" in capsys.readouterr().out

    def test_batch_command_shares_compile_cache(self, capsys):
        code = main(["batch", "--datasets", "wiki-Vote", "--repeat", "3",
                     "--max-nodes", "64", "--config", "Tile-4",
                     "--backend", "analytic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compile_cache_hits" in out
        assert "wiki-Vote#2" in out

    def test_batch_with_output_dir(self, tmp_path, capsys):
        code = main(["--output-dir", str(tmp_path), "batch", "--datasets",
                     "wiki-Vote", "--max-nodes", "64", "--config", "Tile-4"])
        assert code == 0
        saved = list(tmp_path.glob("batch_*.csv"))
        assert len(saved) == 1
        assert "partial_products" in saved[0].read_text()


class TestSessionIntegration:
    """The CLI routes every workload subcommand through a Session."""

    def test_unknown_config_is_a_clean_error(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-99", "--backend", "analytic"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Tile-99" in err

    def test_unknown_dataset_is_a_clean_error(self, capsys):
        code = main(["run", "--dataset", "no-such-graph", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "analytic"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_cache_dir_is_a_clean_error(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("x")
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "analytic",
                     "--cache-dir", str(blocker)])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_warm_cache_dir_reports_cache_hit(self, tmp_path, capsys):
        argv = ["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                "--config", "Tile-4", "--backend", "analytic",
                "--cache-dir", str(tmp_path / "programs")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "False" in cold  # first invocation compiles
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "True" in warm  # second invocation hits the disk cache
        assert list((tmp_path / "programs").glob("*.pkl"))

    def test_run_reports_wall_time_and_cache_columns(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "analytic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache_hit" in out
        assert "wall_time_s" in out

    def test_sharded_run_reports_shard_columns(self, capsys):
        argv = ["run", "--dataset", "wiki-Vote", "--max-nodes", "80",
                "--config", "Tile-4", "--backend", "analytic",
                "--shards", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "shards" in out
        assert "partial_products" in out

    def test_batch_thread_executor(self, capsys):
        code = main(["batch", "--datasets", "wiki-Vote", "--repeat", "2",
                     "--max-nodes", "64", "--config", "Tile-4",
                     "--executor", "thread", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "thread" in out
        assert "wall_time_s" in out


class TestMultiChipCommand:
    def test_multichip_run_reports_chip_columns(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "80",
                     "--config", "Tile-4", "--backend", "multichip",
                     "--chips", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "chips" in out
        assert "shard_skew" in out
        assert "multichip" in out

    def test_chips_without_multichip_backend_is_a_clean_error(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "analytic",
                     "--chips", "4"])
        assert code == 2
        assert "multichip" in capsys.readouterr().err

    def test_chip_backend_without_multichip_is_a_clean_error(self, capsys):
        code = main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "cycle",
                     "--chip-backend", "analytic"])
        assert code == 2
        assert "--chip-backend requires" in capsys.readouterr().err

    def test_multichip_backend_listed(self):
        args = build_parser().parse_args(["run", "--backend", "multichip",
                                          "--chips", "4",
                                          "--chip-backend", "cycle"])
        assert args.backend == "multichip"
        assert args.chips == 4
        assert args.chip_backend == "cycle"


class TestCacheCommand:
    def test_stats_on_empty_dir(self, tmp_path, capsys):
        code = main(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert str(tmp_path) in out

    def test_stats_then_clear_round_trip(self, tmp_path, capsys):
        assert main(["run", "--dataset", "wiki-Vote", "--max-nodes", "64",
                     "--config", "Tile-4", "--backend", "analytic",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "| 1 " in out or "| 1" in out  # one cached program
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.pkl"))

    def test_stats_on_missing_dir_does_not_create_it(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        assert "entries" in capsys.readouterr().out
        assert not missing.exists()

    def test_clear_missing_dir_is_a_noop(self, tmp_path, capsys):
        missing = tmp_path / "never-created"
        assert main(["cache", "clear", "--cache-dir", str(missing)]) == 0
        assert "nothing to clear" in capsys.readouterr().out
        assert not missing.exists()

    def test_cache_requires_an_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])


class TestServeCommand:
    def test_serve_flag_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8077
        assert args.backend == "analytic"
        assert args.max_batch == DEFAULT_MAX_BATCH
        assert args.max_delay_ms == DEFAULT_MAX_DELAY_MS
        assert args.queue_depth == 256
        assert args.request_timeout == 60.0

    def test_serve_accepts_multichip_fleet(self):
        args = build_parser().parse_args(
            ["serve", "--backend", "multichip", "--chips", "4",
             "--port", "0", "--max-batch", "16"])
        assert args.chips == 4
        assert args.port == 0

    def test_serve_chips_without_multichip_is_a_clean_error(self, capsys):
        assert main(["serve", "--chips", "4", "--port", "0"]) == 2
        assert "multichip" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_serve_bad_request_timeout_is_a_clean_error(self, capsys,
                                                        monkeypatch, timeout):
        from repro.serve import ReproServer

        async def never_bind(self):
            raise AssertionError("the server must not start")

        monkeypatch.setattr(ReproServer, "start", never_bind)
        assert main(["serve", "--port", "0", "--request-timeout",
                     timeout]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "request_timeout_s" in err
