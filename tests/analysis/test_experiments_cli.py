"""Tests for the benchmark-suite orchestration and the CLI."""

import argparse
import hashlib
import json
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.experiments import run_benchmark_suite
from repro.cli import build_parser, main
from repro.core.store import ResultStore

#: Tiny exploration grid keeping orchestration tests in the sub-second range.
SMALL_GRID = dict(depths=(2, 3), taus=(0.0, 0.01))


class TestRunBenchmarkSuite:
    def test_runs_named_small_benchmarks(self):
        results = run_benchmark_suite(
            datasets=("vertebral_2c",),
            seed=0,
            include_approximate_baseline=False,
            depths=(2, 3),
            taus=(0.0, 0.01),
        )
        assert len(results) == 1
        assert results[0].dataset == "vertebral_2c"
        assert results[0].selected

    def test_results_are_cached_per_configuration(self, tmp_path):
        kwargs = dict(
            datasets=("vertebral_2c",),
            store=ResultStore(tmp_path),
            seed=0,
            include_approximate_baseline=False,
            depths=(2, 3),
            taus=(0.0, 0.01),
        )
        first = run_benchmark_suite(**kwargs)
        second = run_benchmark_suite(**kwargs)
        assert first[0] is second[0]

    def test_negative_jobs_rejected_even_on_warm_cache(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        kwargs = dict(
            datasets=("vertebral_2c",),
            include_approximate_baseline=False,
            store=store,
            **SMALL_GRID,
        )
        run_benchmark_suite(**kwargs)  # warm the cache
        with pytest.raises(ValueError, match="jobs"):
            run_benchmark_suite(jobs=-3, **kwargs)

    def test_fast_flag_selects_small_benchmarks(self):
        results = run_benchmark_suite(
            fast=True,
            include_approximate_baseline=False,
            depths=(2,),
            taus=(0.0,),
        )
        names = {result.dataset for result in results}
        assert names == {"balance_scale", "vertebral_3c", "vertebral_2c", "seeds"}


class TestCacheKeyNormalization:
    def test_dataset_order_and_container_type_hit_the_same_entries(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        kwargs = dict(seed=0, include_approximate_baseline=False, store=store, **SMALL_GRID)

        first = run_benchmark_suite(datasets=("vertebral_2c", "seeds"), **kwargs)
        assert store.stats.stores == 2 * (1 + 4)  # reference + grid points each

        # Different order, list instead of tuple, and paper abbreviations must
        # all alias the already-computed entries (memo identity included).
        second = run_benchmark_suite(datasets=["SE", "V2"], **kwargs)
        assert store.stats.stores == 2 * (1 + 4)  # nothing recomputed
        assert second[0] is first[1]
        assert second[1] is first[0]
        assert [r.dataset for r in second] == ["seeds", "vertebral_2c"]

    def test_memo_is_bounded(self, tmp_path, monkeypatch):
        from repro.analysis import experiments

        monkeypatch.setattr(experiments, "_MEMO_MAX_ENTRIES", 2)
        store = ResultStore(cache_dir=tmp_path)
        for seed in range(3):
            run_benchmark_suite(
                datasets=("vertebral_2c",),
                seed=seed,
                include_approximate_baseline=False,
                store=store,
                depths=(2,),
                taus=(0.0,),
            )
        assert len(experiments._MEMO) <= 2
        assert store.stats.stores == 3 * 2  # evicted entries remain on disk

    def test_duplicate_requests_share_one_computation(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        results = run_benchmark_suite(
            datasets=("seeds", "seeds"),
            include_approximate_baseline=False,
            store=store,
            **SMALL_GRID,
        )
        assert store.stats.stores == 1 + 4
        assert results[0] is results[1]


class TestResultStorePersistence:
    #: Script run in fresh interpreters: one fast suite over the on-disk store,
    #: printing the store's hit/miss counters.
    SCRIPT = textwrap.dedent(
        """
        from repro.analysis.experiments import run_benchmark_suite
        from repro.core.store import ResultStore

        store = ResultStore(cache_dir={cache_dir!r})
        results = run_benchmark_suite(
            fast=True,
            include_approximate_baseline=False,
            depths=(2,),
            taus=(0.0,),
            store=store,
        )
        print("RESULTS", len(results), "HITS", store.stats.hits,
              "MISSES", store.stats.misses, "STORES", store.stats.stores)
        """
    )

    def _run(self, cache_dir) -> str:
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(cache_dir=str(cache_dir))],
            capture_output=True,
            text=True,
            check=True,
        )
        return completed.stdout

    def test_second_process_hits_the_on_disk_store(self, tmp_path):
        first = self._run(tmp_path / "store")
        # One reference and one design-point entry per benchmark.
        assert "RESULTS 4 HITS 0 MISSES 8 STORES 8" in first

        second = self._run(tmp_path / "store")
        assert "RESULTS 4 HITS 8 MISSES 0 STORES 0" in second


class TestSerialParallelEquivalence:
    def test_parallel_suite_equals_serial_suite(self):
        kwargs = dict(
            datasets=("vertebral_2c", "seeds"),
            seed=0,
            include_approximate_baseline=True,
            store=None,
            **SMALL_GRID,
        )
        serial = run_benchmark_suite(jobs=None, **kwargs)
        parallel = run_benchmark_suite(jobs=4, **kwargs)

        assert len(serial) == len(parallel) == 2
        for left, right in zip(serial, parallel):
            assert left is not right  # store=None: genuinely recomputed
            assert left == right  # full structural equality, trees included

    def test_single_dataset_parallel_sweep_equals_serial(self):
        kwargs = dict(
            datasets=("seeds",),
            include_approximate_baseline=False,
            store=None,
            **SMALL_GRID,
        )
        (serial,) = run_benchmark_suite(jobs=None, **kwargs)
        (parallel,) = run_benchmark_suite(jobs=2, **kwargs)
        assert serial.exploration == parallel.exploration
        assert serial == parallel


def _parser_nodes(parser=None, path=()):
    """``(command path, parser)`` for the root and every nested subcommand."""
    parser = parser if parser is not None else build_parser()
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parser_nodes(sub, (*path, name))


class TestCli:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ["fig3", "table1", "fig4", "fig5", "table2"]:
            args = parser.parse_args(
                [command] if command == "fig3" else [command, "--fast"]
            )
            assert callable(args.handler)

    def test_fig3_command_prints_series(self, capsys):
        exit_code = main(["fig3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Conventional 4-bit flash ADC" in captured.out
        assert "#UD" in captured.out

    def test_table1_command_on_named_dataset(self, capsys):
        exit_code = main(["table1", "--datasets", "vertebral_2c", "--seed", "0"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "vertebral_2c" in captured.out
        assert "Averages" in captured.out

    def test_fig4_command_on_named_dataset(self, capsys):
        exit_code = main(["fig4", "--datasets", "vertebral_2c"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "area reduction" in captured.out

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "--datasets", "not_a_dataset"])

    def test_suite_commands_accept_jobs_and_cache_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["table2", "--fast", "--jobs", "8", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 8
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache is True

    def test_negative_jobs_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--fast", "--jobs", "-3"])

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                [*command, "--trials", trials]
                for command in (
                    ["table2", "--fast"],
                    ["explore"],
                    ["variation", "--dataset", "seeds"],
                    ["surface", "--sigma", "0.02"],
                    ["search", "--dataset", "seeds", "--budget", "1"],
                    ["suite"],
                    ["assemble"],
                )
                for trials in ("0", "-5")
            ),
            *(
                [*command, "--depth", "0"]
                for command in (
                    ["variation", "--dataset", "seeds"],
                    ["registry", "promote", "--dataset", "seeds"],
                    ["serve", "smoke", "--dataset", "seeds"],
                    ["datasheet", "--dataset", "seeds"],
                    ["cosim", "--dataset", "seeds"],
                )
            ),
            ["variation", "--dataset", "seeds", "--resolution-bits", "0"],
            *(
                ["variation", "--dataset", "seeds", "--test-size", size]
                for size in ("0", "1", "1.5", "-0.3")
            ),
            *(
                ["serve", "smoke", "--dataset", "seeds", flag, value]
                for flag, value in (
                    ("--max-batch-size", "0"),
                    ("--rate", "-5"),
                    ("--rate", "0"),
                    ("--max-wait-us", "-3"),
                    ("--duration", "-1"),
                    ("--p99-slo-ms", "0"),
                )
            ),
            ["cosim", "--dataset", "seeds", "--vectors", "-4"],
            ["explore", "--max-accuracy-loss", "-1"],
            *(
                [*command, "--max-accuracy-drop", "-0.01"]
                for command in (["explore"], ["table2"], ["assemble"])
            ),
            ["search", "--dataset", "seeds", "--budget", "-1"],
            ["search", "--dataset", "seeds", "--budget", "1", "--batch-size", "0"],
            *(
                [*command, "--seed", "-1"]
                for command in (
                    ["table1"],
                    ["explore"],
                    ["search", "--dataset", "seeds", "--budget", "1"],
                    ["suite"],
                    ["datasheet", "--dataset", "seeds"],
                )
            ),
            ["datasheet", "--dataset", "seeds", "--tau", "-0.5"],
            ["variation", "--dataset", "seeds", "--robustness-weight", "-1"],
            ["registry", "show", "model", "--version", "0"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_numbers_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
        assert f"argument {argv[-2]}: must be" in err

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                [*command, "--sigma", value]
                for command in (
                    ["variation", "--dataset", "seeds"],
                    ["table2", "--fast"],
                    ["explore"],
                    ["surface"],
                    ["suite"],
                    ["assemble"],
                )
                for value in ("inf", "nan")
            ),
            ["explore", "--training-sigma", "inf"],
            ["table2", "--training-sigma", "nan"],
        ],
        ids=" ".join,
    )
    def test_non_finite_sigmas_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}" in err and "must be a finite" in err

    def test_table1_with_jobs_and_cache_dir(self, capsys, tmp_path):
        argv = [
            "table1",
            "--datasets",
            "vertebral_2c",
            "--jobs",
            "2",
            "--cache-dir",
            str(tmp_path / "cli-cache"),
        ]
        assert main(argv) == 0
        assert "vertebral_2c" in capsys.readouterr().out
        # the run populated the pointed-at store
        assert len(ResultStore(cache_dir=tmp_path / "cli-cache")) >= 1

    def test_datasheet_command(self, capsys):
        exit_code = main(
            ["datasheet", "--dataset", "balance_scale", "--depth", "3", "--tau", "0.01"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "DATASHEET" in captured.out
        assert "Bespoke ADC front end" in captured.out
        assert "self-power:" in captured.out

    def test_datasheet_requires_dataset(self):
        with pytest.raises(SystemExit):
            main(["datasheet"])

    @pytest.mark.parametrize(
        "command", [" ".join(("repro", *path)) for path, _ in _parser_nodes()]
    )
    def test_every_parser_node_renders_its_help(self, command):
        nodes = {" ".join(("repro", *path)): parser for path, parser in _parser_nodes()}
        assert nodes[command].format_help()

    def test_help_walk_reaches_nested_subcommands(self):
        paths = {path for path, _ in _parser_nodes()}
        assert {("cache", "prune"), ("registry", "promote"), ("serve", "smoke")} <= paths

    def test_root_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "<=1% loss" in capsys.readouterr().out

    def test_no_command_takes_an_engine(self):
        takes_engine = [
            path
            for path, parser in _parser_nodes()
            if "--engine" in parser.format_help()
        ]
        assert takes_engine == []


class TestRunVariationAnalysis:
    def test_computes_and_caches_per_seed_summaries(self, tmp_path):
        from repro.analysis.experiments import run_variation_analysis

        store = ResultStore(cache_dir=tmp_path / "var-cache")
        kwargs = dict(
            sigmas=(0.02,), n_trials=5, seed=0, depth=3, tau=0.01, store=store
        )
        (first,) = run_variation_analysis("vertebral_2c", **kwargs)
        assert len(first.accuracies) == 5
        assert len(store) == 1
        (second,) = run_variation_analysis("vertebral_2c", **kwargs)
        assert second.accuracies == first.accuracies
        assert store.lifetime_stats()["hits"] >= 1

    def test_no_cache_bypasses_store(self):
        from repro.analysis.experiments import run_variation_analysis

        (analysis,) = run_variation_analysis(
            "vertebral_2c", (0.01,), n_trials=3, depth=3, store=None,
        )
        assert len(analysis.accuracies) == 3
        assert len(ResultStore()) == 0  # not even the default location

    def test_dataset_abbreviation_hits_same_entry(self, tmp_path):
        from repro.analysis.experiments import run_variation_analysis

        store = ResultStore(cache_dir=tmp_path / "var-cache")
        kwargs = dict(sigmas=(0.02,), n_trials=4, depth=3, store=store)
        run_variation_analysis("vertebral_2c", **kwargs)
        run_variation_analysis("V2", **kwargs)
        assert len(store) == 1

    def test_one_analysis_per_sigma_in_the_order_given(self, tmp_path):
        from repro.analysis.experiments import run_variation_analysis

        store = ResultStore(cache_dir=tmp_path / "var-cache")
        kwargs = dict(n_trials=4, depth=3, store=store)
        analyses = run_variation_analysis("vertebral_2c", (0.02, 0.0, 0.02), **kwargs)
        assert [analysis.sigma_v for analysis in analyses] == [0.02, 0.0, 0.02]
        assert analyses[0] == analyses[2]
        assert len(store) == 2  # the repeated sigma is one unit
        stores = store.stats.stores
        again = run_variation_analysis("vertebral_2c", (0.02, 0.0, 0.02), **kwargs)
        assert again == analyses
        assert store.stats.stores == stores  # the second call stores nothing


class TestVariationCommand:
    def test_variation_command_renders_table(self, capsys, tmp_path):
        exit_code = main(
            [
                "variation", "--dataset", "vertebral_2c", "--sigmas", "0", "0.02",
                "--trials", "5", "--depth", "3",
                "--cache-dir", str(tmp_path / "cli-var-cache"),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "sigma (mV)" in captured.out
        assert "mean drop (%)" in captured.out
        assert len(ResultStore(cache_dir=tmp_path / "cli-var-cache")) == 2

    def test_jobs_fan_out_across_sigmas_with_identical_results(self, capsys, tmp_path):
        runs = []
        for jobs in ("1", "2"):
            cache_dir = tmp_path / f"jobs-{jobs}"
            assert main(
                [
                    "variation", "--dataset", "vertebral_2c", "--sigmas", "0", "0.01",
                    "0.02", "--trials", "5", "--depth", "3", "--jobs", jobs,
                    "--cache-dir", str(cache_dir),
                ]
            ) == 0
            entries = {
                path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in cache_dir.glob("*.pkl")
            }
            runs.append((capsys.readouterr().out, entries))
        assert len(runs[0][1]) == 3
        assert runs[1] == runs[0]

    def test_variation_requires_dataset(self):
        with pytest.raises(SystemExit):
            main(["variation"])


class TestCacheCommand:
    def test_cache_stats_clear_prune_round_trip(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache-cli"
        store = ResultStore(cache_dir=cache_dir)
        store.put(store.make_key(n=1), "payload")
        store.get(store.make_key(n=1))
        store.flush_stats()

        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries:   1" in out
        assert "1 hits" in out

        assert main(
            ["cache", "prune", "--older-than-days", "30", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        assert len(store) == 1

        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert len(store) == 0

    def test_lifetime_counters_of_a_command_sequence(self, capsys, tmp_path):
        # Every runner's store traffic is flushed by the shared fan-out, the
        # failing cache-only surface's included, so no probe goes uncounted.
        from repro.analysis.experiments import clear_memo

        clear_memo()  # a memo hit would skip the table1 probes
        cache = ["--cache-dir", str(tmp_path / "sequence")]
        exit_codes = [
            main(argv + cache)
            for argv in (
                ["table1", "--datasets", "vertebral_2c"],
                ["surface", "--datasets", "vertebral_2c", "--sigma", "0.02",
                 "--trials", "5", "--cache-only"],
                ["variation", "--dataset", "vertebral_2c", "--sigmas", "0", "0.02",
                 "--trials", "5", "--depth", "3"],
                ["suite", "--datasets", "vertebral_2c", "--sigma", "0.02",
                 "--trials", "5"],
            )
        ]
        assert exit_codes == [0, 1, 0, 0]  # the surface's Monte-Carlo is missing
        capsys.readouterr()
        assert main(["cache", "stats", "--json", *cache]) == 0
        lifetime = json.loads(capsys.readouterr().out)["lifetime"]
        assert lifetime == {"hits": 101, "misses": 150, "stores": 101}

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestReadOnlyStoreHits:
    def test_cache_hit_does_not_require_write_access(self, tmp_path):
        import os

        from repro.analysis.experiments import run_variation_analysis

        cache_dir = tmp_path / "ro-cache"
        store = ResultStore(cache_dir=cache_dir)
        kwargs = dict(sigmas=(0.02,), n_trials=4, depth=3)
        (first,) = run_variation_analysis("vertebral_2c", store=store, **kwargs)
        os.chmod(cache_dir, 0o555)
        try:
            reader = ResultStore(cache_dir=cache_dir)
            (second,) = run_variation_analysis("vertebral_2c", store=reader, **kwargs)
            assert second.accuracies == first.accuracies
        finally:
            os.chmod(cache_dir, 0o755)


class TestRunRobustExploration:
    def test_points_carry_cached_robustness_columns(self, tmp_path):
        from repro.analysis.experiments import run_robust_exploration

        store = ResultStore(cache_dir=tmp_path / "robust-cache")
        kwargs = dict(sigma_v=0.03, n_trials=6, seed=0, store=store, **SMALL_GRID)
        exploration = run_robust_exploration("vertebral_2c", **kwargs)
        assert exploration.dataset == "vertebral_2c"
        assert len(exploration.points) == 4
        for point in exploration.points:
            assert point.robustness is not None
            assert len(point.robustness.accuracies) == 6
        # 1 reference + one design-point and one variation entry per point
        assert store.stats.stores == 1 + 4 + 4

        again = run_robust_exploration("vertebral_2c", **kwargs)
        assert store.stats.stores == 1 + 4 + 4  # everything reused
        assert again.points == exploration.points

    def test_serial_equals_parallel(self):
        from repro.analysis.experiments import run_robust_exploration

        kwargs = dict(
            sigma_v=0.03, n_trials=6, seed=0, store=None, **SMALL_GRID
        )
        serial = run_robust_exploration("vertebral_2c", jobs=None, **kwargs)
        parallel = run_robust_exploration("vertebral_2c", jobs=2, **kwargs)
        assert serial.points == parallel.points

    def test_shares_cache_entries_with_variation_cli(self, tmp_path):
        from repro.analysis.experiments import (
            run_robust_exploration,
            run_variation_analysis,
        )

        store = ResultStore(cache_dir=tmp_path / "shared-cache")
        exploration = run_robust_exploration(
            "vertebral_2c", sigma_v=0.02, n_trials=5, seed=0,
            depths=(3,), taus=(0.01,), store=store,
        )
        stores_before = store.stats.stores
        # Same (dataset, seed, sigma, trials, depth, tau) => same entry.
        (analysis,) = run_variation_analysis(
            "vertebral_2c", (0.02,), n_trials=5, seed=0, depth=3, tau=0.01,
            store=store,
        )
        assert store.stats.stores == stores_before  # hit, not a recomputation
        assert analysis == exploration.points[0].robustness

    def test_selection_under_drop_constraint(self):
        from repro.analysis.experiments import run_robust_exploration

        exploration = run_robust_exploration(
            "vertebral_2c", sigma_v=0.02, n_trials=5, seed=0, **SMALL_GRID
        )
        unconstrained = exploration.select(max_accuracy_loss=0.05)
        assert unconstrained is not None
        constrained = exploration.select(max_accuracy_loss=0.05, max_accuracy_drop=1.0)
        assert constrained is not None  # every drop is <= 100%
        with pytest.raises(ValueError, match="max_accuracy_drop"):
            exploration.select(max_accuracy_loss=0.05, max_accuracy_drop=-1.0)


class TestExploreCommand:
    def test_explore_renders_grid_and_selection(self, capsys, tmp_path):
        exit_code = main(
            [
                "explore", "--dataset", "vertebral_2c", "--sigma", "0.04",
                "--max-accuracy-drop", "0.05", "--trials", "5",
                "--cache-dir", str(tmp_path / "explore-cache"),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "mean drop (%)" in captured.out
        assert "selected:" in captured.out
        # full paper grid (49 points) cached: reference entry + per-point
        # design points and analyses
        assert len(ResultStore(cache_dir=tmp_path / "explore-cache")) == 1 + 2 * 49

    def test_explore_writes_json_export(self, capsys, tmp_path):
        import json

        out = tmp_path / "exploration.json"
        exit_code = main(
            [
                "explore", "--dataset", "vertebral_2c", "--sigma", "0.02",
                "--trials", "4", "--cache-dir", str(tmp_path / "json-cache"),
                "--json", str(out),
            ]
        )
        assert exit_code == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["dataset"] == "vertebral_2c"
        assert len(payload["points"]) == 49
        assert all(p["mean_accuracy_drop"] is not None for p in payload["points"])

    def test_explore_json_records_objective(self, capsys, tmp_path):
        import json

        out = tmp_path / "area.json"
        assert main(
            [
                "explore", "--dataset", "vertebral_2c", "--sigma", "0.02",
                "--trials", "4", "--objective", "area",
                "--cache-dir", str(tmp_path / "area-cache"), "--json", str(out),
            ]
        ) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["constraints"]["objective"] == "area"
        selected = payload["selected"]
        # the exported point is the area-optimal feasible design
        assert selected["total_area_mm2"] == min(
            p["total_area_mm2"] for p in payload["points"]
            if p["accuracy"] >= payload["baseline_accuracy"] - 0.01 - 1e-12
        )

    def test_table2_offset_aware_variant(self, capsys, tmp_path):
        exit_code = main(
            [
                "table2", "--datasets", "vertebral_2c", "--sigma", "0.02",
                "--trials", "4", "--max-accuracy-drop", "0.05",
                "--cache-dir", str(tmp_path / "t2-cache"),
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Offset-aware co-design selection" in captured.out
        assert "nominal training" in captured.out
        assert "mean drop (%)" in captured.out


class TestTrainingSigmaCli:
    """Golden tests for the offset-aware-training CLI surface."""

    def test_parsers_accept_training_sigma(self):
        parser = build_parser()
        args = parser.parse_args(
            ["explore", "--dataset", "seeds", "--training-sigma", "0.04"]
        )
        assert args.training_sigma == 0.04
        args = parser.parse_args(
            ["table2", "--fast", "--sigma", "0.04", "--training-sigma", "0.02"]
        )
        assert args.training_sigma == 0.02
        # nominal by default on both commands
        assert build_parser().parse_args(
            ["explore", "--dataset", "seeds"]
        ).training_sigma == 0.0

    def test_negative_training_sigma_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["explore", "--dataset", "seeds", "--training-sigma", "-0.01"]
            )

    def test_table2_training_sigma_without_sigma_is_an_error(self, capsys):
        """No --sigma means no robustness selection: refuse instead of
        silently rendering the nominal table."""
        assert main(["table2", "--fast", "--training-sigma", "0.04"]) == 2
        captured = capsys.readouterr()
        assert "--training-sigma requires --sigma" in captured.err

    def test_explore_header_names_the_training_mode(self, capsys, tmp_path):
        argv = [
            "explore", "--dataset", "vertebral_2c", "--sigma", "0.04",
            "--trials", "4", "--cache-dir", str(tmp_path / "hdr-cache"),
        ]
        assert main(argv) == 0
        assert "nominal training" in capsys.readouterr().out
        assert main(argv + ["--training-sigma", "0.04"]) == 0
        assert "offset-aware training at 40 mV" in capsys.readouterr().out

    def test_explore_json_records_training_parameters(self, capsys, tmp_path):
        import json

        out = tmp_path / "aware.json"
        assert main(
            [
                "explore", "--dataset", "vertebral_2c", "--sigma", "0.02",
                "--trials", "4", "--training-sigma", "0.02",
                "--cache-dir", str(tmp_path / "aware-cache"), "--json", str(out),
            ]
        ) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["training_sigma"] == 0.02
        assert payload["robustness_weight"] == 1.0
        assert len(payload["points"]) == 49
        # the nominal export stays nominal
        nominal_out = tmp_path / "nominal.json"
        assert main(
            [
                "explore", "--dataset", "vertebral_2c", "--sigma", "0.02",
                "--trials", "4",
                "--cache-dir", str(tmp_path / "aware-cache"),
                "--json", str(nominal_out),
            ]
        ) == 0
        capsys.readouterr()
        assert json.loads(nominal_out.read_text())["training_sigma"] == 0.0

    def test_nominal_and_offset_aware_runs_cache_separately(self, capsys, tmp_path):
        cache = tmp_path / "sep-cache"
        base = [
            "explore", "--dataset", "vertebral_2c", "--sigma", "0.02",
            "--trials", "4", "--cache-dir", str(cache),
        ]
        assert main(base) == 0
        capsys.readouterr()
        nominal_entries = len(ResultStore(cache_dir=cache))
        assert nominal_entries == 1 + 2 * 49
        # the offset-aware run must not alias the nominal entries (only the
        # nominal reference designs are shared) ...
        assert main(base + ["--training-sigma", "0.02"]) == 0
        capsys.readouterr()
        assert len(ResultStore(cache_dir=cache)) == 2 * nominal_entries - 1
        # ... and a rerun reuses them all
        assert main(base + ["--training-sigma", "0.02"]) == 0
        capsys.readouterr()
        assert len(ResultStore(cache_dir=cache)) == 2 * nominal_entries - 1

    def test_table2_training_sigma_golden_output(self, capsys, tmp_path):
        assert main(
            [
                "table2", "--datasets", "vertebral_2c", "--sigma", "0.04",
                "--training-sigma", "0.04", "--trials", "4",
                "--max-accuracy-drop", "0.05",
                "--cache-dir", str(tmp_path / "t2-aware-cache"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Offset-aware co-design selection" in out
        assert "offset-aware training at 40 mV" in out
        assert "mean drop (%)" in out
        assert "benchmarks feasible" in out

    def test_run_robust_exploration_carries_training_parameters(self):
        from repro.analysis.experiments import run_robust_exploration

        kwargs = dict(
            sigma_v=0.03, n_trials=4, seed=0, store=None, **SMALL_GRID
        )
        nominal = run_robust_exploration("vertebral_2c", **kwargs)
        aware = run_robust_exploration(
            "vertebral_2c", training_sigma=0.03, **kwargs
        )
        assert nominal.training_sigma == 0.0
        assert aware.training_sigma == 0.03
        assert aware.robustness_weight == 1.0
        # both passes see the same nominal baseline
        assert aware.baseline_accuracy == nominal.baseline_accuracy


class TestCachePruneBySize:
    def test_prune_max_bytes_evicts_lru(self, capsys, tmp_path):
        cache_dir = tmp_path / "lru-cli"
        store = ResultStore(cache_dir=cache_dir)
        import os as _os
        import time as _time

        now = _time.time()
        for index in range(3):
            key = store.make_key(n=index)
            store.put(key, b"x" * 2000)
            _os.utime(store.path_for(key), (now - 100 * (3 - index),) * 2)

        budget = store.disk_stats().total_bytes - 1
        assert main(
            ["cache", "prune", "--max-bytes", str(budget), "--cache-dir", str(cache_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted 1 least-recently-used entries" in out
        assert len(store) == 2
        assert store.make_key(n=0) not in store  # oldest went first

    def test_prune_accepts_age_and_size_together(self, capsys, tmp_path):
        cache_dir = tmp_path / "both-cli"
        store = ResultStore(cache_dir=cache_dir)
        store.put(store.make_key(n=1), "payload")
        assert main(
            [
                "cache", "prune", "--older-than-days", "30",
                "--max-bytes", "0", "--cache-dir", str(cache_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "pruned 0 entries" in out
        assert "evicted 1 least-recently-used entries" in out
        assert len(store) == 0

    def test_prune_requires_a_criterion(self, capsys, tmp_path):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "--older-than-days and/or --max-bytes" in capsys.readouterr().err

    def test_negative_max_bytes_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "prune", "--max-bytes", "-1"])


class TestResolveSuiteDatasets:
    def test_defaults_and_passthrough(self):
        from repro.analysis.experiments import (
            FAST_DATASETS,
            resolve_suite_datasets,
        )
        from repro.datasets.registry import dataset_names

        assert resolve_suite_datasets(None, fast=False) == tuple(dataset_names())
        assert resolve_suite_datasets(None, fast=True) == FAST_DATASETS
        assert resolve_suite_datasets(("SE", "V2"), fast=True) == ("SE", "V2")


class TestShardedSuiteApi:
    def test_suite_variants_share_their_design_points(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path / "cache")
        kwargs = dict(datasets=("vertebral_2c", "seeds"), store=store, **SMALL_GRID)
        table1 = run_benchmark_suite(include_approximate_baseline=False, **kwargs)
        assert store.stats.stores == 2 * (1 + 4)
        table2 = run_benchmark_suite(include_approximate_baseline=True, **kwargs)
        assert store.stats.stores == 2 * (1 + 4) + 2  # only the references
        for nominal, approximate in zip(table1, table2):
            assert approximate.exploration == nominal.exploration
            assert approximate.approximate_baseline is not None

    def test_cache_only_requires_a_store(self):
        with pytest.raises(ValueError, match="cache_only requires a store"):
            run_benchmark_suite(
                datasets=("seeds",), store=None, cache_only=True, **SMALL_GRID
            )

    def test_cache_only_raises_listing_missing_units(self, tmp_path):
        from repro.core.sharding import MissingResultsError

        store = ResultStore(cache_dir=tmp_path / "empty")
        with pytest.raises(MissingResultsError) as excinfo:
            run_benchmark_suite(
                datasets=("vertebral_2c",),
                include_approximate_baseline=False,
                store=store,
                cache_only=True,
                **SMALL_GRID,
            )
        assert "suite:vertebral_2c[table1]" in str(excinfo.value)
        assert "point:vertebral_2c[d=3,tau=0.01]" in str(excinfo.value)
        assert len(excinfo.value.missing) == 1 + 4

    def test_cache_only_serves_from_store_with_zero_misses(self, tmp_path):
        from repro.analysis.experiments import clear_memo

        store = ResultStore(cache_dir=tmp_path / "warm")
        kwargs = dict(
            datasets=("vertebral_2c",),
            include_approximate_baseline=False,
            **SMALL_GRID,
        )
        first = run_benchmark_suite(store=store, **kwargs)
        clear_memo()
        reader = ResultStore(cache_dir=tmp_path / "warm")
        results = run_benchmark_suite(store=reader, cache_only=True, **kwargs)
        assert results == first
        assert reader.stats.hits == 1 + 4
        assert reader.stats.misses == 0   # zero recomputation, zero misses
        assert reader.stats.stores == 0

    def test_cache_only_bypasses_the_memo(self, tmp_path):
        """A warm in-process memo must not mask a missing store entry."""
        from repro.core.sharding import MissingResultsError

        store = ResultStore(cache_dir=tmp_path / "gone")
        kwargs = dict(
            datasets=("vertebral_2c",),
            include_approximate_baseline=False,
            **SMALL_GRID,
        )
        run_benchmark_suite(store=store, **kwargs)  # computes and memoizes
        store.clear()
        with pytest.raises(MissingResultsError):
            run_benchmark_suite(store=store, cache_only=True, **kwargs)


class TestRunPlanShard:
    def test_shards_cover_plan_and_cache_only_render_matches_unsharded(
        self, tmp_path
    ):
        from repro.analysis.experiments import (
            clear_memo,
            run_plan_shard,
            run_robust_exploration,
        )
        from repro.core.sharding import ShardSpec, plan_suite_units

        plan = plan_suite_units(
            datasets=("vertebral_2c", "seeds"), sigmas=(0.02,), n_trials=4,
            **SMALL_GRID,
        )
        store = ResultStore(cache_dir=tmp_path / "sharded")
        reports = [
            run_plan_shard(plan, ShardSpec(index, 3), store=store)
            for index in (1, 2, 3)
        ]
        assert sum(report.n_units for report in reports) == len(plan.units)
        assert plan.missing(store) == ()

        # cache-only resolution equals a genuinely unsharded recomputation
        unsharded = run_robust_exploration(
            "seeds", sigma_v=0.02, n_trials=4, store=None, **SMALL_GRID
        )
        clear_memo()
        reader = ResultStore(cache_dir=tmp_path / "sharded")
        assembled = run_robust_exploration(
            "seeds", sigma_v=0.02, n_trials=4, store=reader, cache_only=True,
            **SMALL_GRID,
        )
        assert assembled.points == unsharded.points
        assert assembled.baseline_accuracy == unsharded.baseline_accuracy
        assert reader.stats.misses == 0

    def test_rerun_reuses_everything(self, tmp_path):
        from repro.analysis.experiments import run_plan_shard
        from repro.core.sharding import plan_suite_units

        plan = plan_suite_units(datasets=("vertebral_2c",), **SMALL_GRID)
        store = ResultStore(cache_dir=tmp_path / "rerun")
        first = run_plan_shard(plan, store=store)
        assert first.reused == 0 and first.computed == len(plan.units)
        again = run_plan_shard(plan, store=store)
        assert again.reused == len(plan.units) and again.computed == 0


class TestSuiteCommand:
    def test_list_units_prints_plan_without_computing(self, capsys):
        assert main(["suite", "--datasets", "vertebral_2c", "--list-units"]) == 0
        out = capsys.readouterr().out
        assert "suite:vertebral_2c[table1]" in out
        assert "suite:vertebral_2c[table2]" in out

    def test_shard_argument_rejected_at_parse_time(self):
        for bad in ("0/3", "4/3", "x/y"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["suite", "--shard", bad])

    def test_sharded_cli_assemble_matches_direct_commands(self, capsys, tmp_path):
        cache = tmp_path / "store"
        base = ["--datasets", "vertebral_2c", "--sigma", "0.02", "--trials", "4"]
        for index in (1, 2):
            assert main(
                ["suite", *base, "--shard", f"{index}/2", "--cache-dir", str(cache)]
            ) == 0
        capsys.readouterr()

        out_dir = tmp_path / "artifacts"
        assert main(
            ["assemble", *base, "--cache-dir", str(cache),
             "--output-dir", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "0 misses" in out and "0 recomputed" in out

        # byte-identical to the direct commands rendering from the same store
        assert main(
            ["table1", "--datasets", "vertebral_2c", "--cache-dir", str(cache)]
        ) == 0
        assert (out_dir / "table1.txt").read_text() == capsys.readouterr().out
        assert main(
            ["table2", "--datasets", "vertebral_2c", "--cache-dir", str(cache)]
        ) == 0
        assert (out_dir / "table2.txt").read_text() == capsys.readouterr().out
        assert main(
            ["table2", "--datasets", "vertebral_2c", "--sigma", "0.02",
             "--trials", "4", "--cache-dir", str(cache)]
        ) == 0
        assert (
            out_dir / "table2_offset_aware.txt"
        ).read_text() == capsys.readouterr().out

    def test_assemble_fails_loudly_listing_missing_units(self, capsys, tmp_path):
        from repro.core.sharding import plan_suite_units

        cache = tmp_path / "holey"
        assert main(
            ["suite", "--datasets", "vertebral_2c", "--cache-dir", str(cache)]
        ) == 0
        plan = plan_suite_units(datasets=("vertebral_2c",))
        dropped = plan.units[0]
        ResultStore(cache_dir=cache).invalidate(dropped.store_key)
        capsys.readouterr()

        assert main(
            ["assemble", "--datasets", "vertebral_2c", "--cache-dir", str(cache)]
        ) == 1
        captured = capsys.readouterr()
        assert "missing 1 of 51 planned units" in captured.err  # 2 suite + 49 point
        assert dropped.label in captured.err
        assert dropped.store_key in captured.err

    @pytest.mark.slow
    def test_sharded_equals_unsharded_byte_identical(self, capsys, tmp_path):
        """Acceptance: k/3 shards into one store + assemble render the exact
        bytes an unsharded single-process (``--no-cache``) run prints."""
        datasets = ["vertebral_2c", "seeds"]
        cache = tmp_path / "sharded"
        for index in (1, 2, 3):
            assert main(
                ["suite", "--datasets", *datasets, "--shard", f"{index}/3",
                 "--cache-dir", str(cache)]
            ) == 0
        capsys.readouterr()
        out_dir = tmp_path / "artifacts"
        assert main(
            ["assemble", "--datasets", *datasets, "--cache-dir", str(cache),
             "--output-dir", str(out_dir)]
        ) == 0
        assert "0 misses" in capsys.readouterr().out

        assert main(["table1", "--datasets", *datasets, "--no-cache"]) == 0
        assert (out_dir / "table1.txt").read_text() == capsys.readouterr().out
        assert main(["table2", "--datasets", *datasets, "--no-cache"]) == 0
        assert (out_dir / "table2.txt").read_text() == capsys.readouterr().out


class TestCacheStatsJson:
    def test_json_flag_emits_machine_readable_counts(self, capsys, tmp_path):
        import json

        cache_dir = tmp_path / "json-cache"
        store = ResultStore(cache_dir=cache_dir)
        store.put(store.make_key(n=1), "payload")
        store.get(store.make_key(n=1))
        store.get(store.make_key(n=2))  # miss
        store.flush_stats()

        assert main(["cache", "stats", "--json", "--cache-dir", str(cache_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"]["n_entries"] == 1
        assert payload["lifetime"] == {"hits": 1, "misses": 1, "stores": 1}
        assert payload["hit_rate"] == 0.5
        assert payload["store"] == str(cache_dir)

    def test_json_hit_rate_null_on_fresh_store(self, capsys, tmp_path):
        import json

        assert main(
            ["cache", "stats", "--json", "--cache-dir", str(tmp_path / "fresh")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hit_rate"] is None
        assert payload["lifetime"] == {"hits": 0, "misses": 0, "stores": 0}


class TestCacheExportImportCli:
    def test_export_import_round_trip(self, capsys, tmp_path):
        source_dir = tmp_path / "source"
        source = ResultStore(cache_dir=source_dir)
        for index in range(2):
            source.put(source.make_key(n=index), index)
        archive = tmp_path / "store.tar.gz"

        assert main(
            ["cache", "export", "--cache-dir", str(source_dir),
             "--output", str(archive)]
        ) == 0
        assert "exported 2 entries" in capsys.readouterr().out

        target_dir = tmp_path / "target"
        assert main(
            ["cache", "import", str(archive), "--cache-dir", str(target_dir)]
        ) == 0
        assert "2 new entries" in capsys.readouterr().out
        target = ResultStore(cache_dir=target_dir)
        assert len(target) == 2
        # idempotent re-import
        assert main(
            ["cache", "import", str(archive), "--cache-dir", str(target_dir)]
        ) == 0
        assert "0 new entries" in capsys.readouterr().out

    def test_import_rejects_garbage(self, capsys, tmp_path):
        junk = tmp_path / "junk.tar.gz"
        junk.write_text("nope")
        assert main(
            ["cache", "import", str(junk), "--cache-dir", str(tmp_path / "s")]
        ) == 2
        assert "not a result-store archive" in capsys.readouterr().err


    def test_export_of_missing_store_fails_without_creating_it(self, capsys, tmp_path):
        typo = tmp_path / "typo"
        archive = tmp_path / "out" / "store.tar.gz"
        assert main(
            ["cache", "export", "--cache-dir", str(typo), "--output", str(archive)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro cache export: ")
        assert str(typo) in captured.err
        assert "exported" not in captured.out
        assert not typo.exists()
        assert not archive.parent.exists()


class TestArchiveTransportCounts:
    def test_shard_archives_assemble_with_exact_lifetime_counts(self, capsys, tmp_path):
        """Two shard stores travel as archives into a third store; its
        lifetime counters are exactly the shards' misses/stores plus the
        assemble hits, and re-assembling adds hits only."""
        import json

        archives = []
        for index in (1, 2):
            shard_dir = tmp_path / f"shard{index}"
            assert main(
                ["suite", "--datasets", "seeds", "--shard", f"{index}/2",
                 "--cache-dir", str(shard_dir)]
            ) == 0
            archive = tmp_path / f"shard{index}.tar.gz"
            assert main(
                ["cache", "export", "--cache-dir", str(shard_dir),
                 "--output", str(archive)]
            ) == 0
            archives += ["--from-archive", str(archive)]

        merged = tmp_path / "merged"
        lifetimes = []
        for _ in range(2):
            assert main(
                ["assemble", "--datasets", "seeds", "--cache-dir", str(merged),
                 *archives]
            ) == 0
            capsys.readouterr()
            assert main(["cache", "stats", "--json", "--cache-dir", str(merged)]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["entries"]["n_entries"] == 51  # 2 suite + 49 point units
            lifetimes.append(stats["lifetime"])
        assert lifetimes[0] == {"hits": 100, "misses": 51, "stores": 51}
        assert lifetimes[1] == {"hits": 200, "misses": 51, "stores": 51}


class TestAssembleArchiveErrors:
    def test_missing_archive_diagnosed_not_traceback(self, capsys, tmp_path):
        assert main(
            ["assemble", "--datasets", "seeds",
             "--cache-dir", str(tmp_path / "store"),
             "--from-archive", str(tmp_path / "never-uploaded.tar.gz")]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro assemble: ")
        assert "never-uploaded.tar.gz" in err


class TestVariationCacheKeyBugfix:
    """Regression: ``run_variation_analysis`` used to hard-default the
    training knobs in its cache key and always train the nominal tree."""

    def test_nominal_defaults_address_the_spec_key(self, tmp_path):
        from repro.analysis.experiments import run_variation_analysis
        from repro.core.design import DesignSpec

        store = ResultStore(cache_dir=tmp_path / "nominal")
        (analysis,) = run_variation_analysis(
            "vertebral_2c", (0.02,), n_trials=4, seed=0, depth=3,
            tau=0.01, store=store,
        )
        key = DesignSpec("vertebral_2c", 0, 3, 0.01).variation_key(0.02, 4)
        assert store.get(key) == analysis

    def test_training_knobs_address_separate_entries(self, tmp_path):
        from repro.analysis.experiments import run_variation_analysis

        store = ResultStore(cache_dir=tmp_path / "knobs")
        kwargs = dict(sigmas=(0.02,), n_trials=4, seed=0, depth=3, tau=0.01,
                      store=store)
        (nominal,) = run_variation_analysis("vertebral_2c", **kwargs)
        assert len(store) == 1
        (aware,) = run_variation_analysis(
            "vertebral_2c", training_sigma=0.02, **kwargs
        )
        assert len(store) == 2  # no aliasing of the nominal entry
        assert aware != nominal
        # a rerun with the same knobs is a pure hit
        (again,) = run_variation_analysis(
            "vertebral_2c", training_sigma=0.02, **kwargs
        )
        assert len(store) == 2
        assert again == aware

    def test_offset_aware_entries_shared_with_exploration(self, tmp_path):
        from repro.analysis.experiments import (
            run_robust_exploration,
            run_variation_analysis,
        )

        store = ResultStore(cache_dir=tmp_path / "shared")
        exploration = run_robust_exploration(
            "vertebral_2c", sigma_v=0.02, n_trials=4, seed=0,
            depths=(3,), taus=(0.01,), training_sigma=0.02, store=store,
        )
        stores_before = store.stats.stores
        (analysis,) = run_variation_analysis(
            "vertebral_2c", (0.02,), n_trials=4, seed=0, depth=3,
            tau=0.01, training_sigma=0.02, store=store,
        )
        assert store.stats.stores == stores_before  # hit, not recomputed
        assert analysis == exploration.points[0].robustness

    def test_offset_aware_training_changes_the_classifier_under_test(self):
        from repro.analysis.experiments import run_variation_analysis

        kwargs = dict(sigmas=(0.04,), n_trials=4, seed=0, depth=3, tau=0.01,
                      store=None)
        (nominal,) = run_variation_analysis("vertebral_2c", **kwargs)
        (aware,) = run_variation_analysis(
            "vertebral_2c", training_sigma=0.04, **kwargs
        )
        # different trained tree => different Monte-Carlo trajectory
        assert aware.accuracies != nominal.accuracies


class TestVariationCommandKnobs:
    def test_sigma_and_sigmas_are_aliases(self):
        parser = build_parser()
        for flag in ("--sigma", "--sigmas"):
            args = parser.parse_args(
                ["variation", "--dataset", "seeds", flag, "0.01", "0.02"]
            )
            assert args.sigmas == [0.01, 0.02]

    def test_training_knob_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["variation", "--dataset", "seeds"])
        assert args.training_sigma == 0.0
        assert args.robustness_weight == 1.0
        assert args.resolution_bits == 4
        assert args.test_size == 0.3

    def test_nominal_header_is_unchanged(self, capsys, tmp_path):
        assert main(
            ["variation", "--dataset", "vertebral_2c", "--sigma", "0.02",
             "--trials", "3", "--depth", "3",
             "--cache-dir", str(tmp_path / "hdr")]
        ) == 0
        out = capsys.readouterr().out
        assert "seed 0)" in out  # no training-mode suffix on nominal runs
        assert "offset-aware" not in out

    def test_offset_aware_header_names_the_training_mode(self, capsys, tmp_path):
        assert main(
            ["variation", "--dataset", "vertebral_2c", "--sigma", "0.02",
             "--trials", "3", "--depth", "3", "--training-sigma", "0.04",
             "--cache-dir", str(tmp_path / "hdr-aware")]
        ) == 0
        assert "offset-aware training at 40 mV" in capsys.readouterr().out


class TestRunRobustnessSurface:
    def test_cache_only_on_cold_store_lists_every_missing_unit(self, tmp_path):
        from repro.analysis.experiments import run_robustness_surface
        from repro.core.sharding import MissingResultsError

        store = ResultStore(cache_dir=tmp_path / "cold")
        with pytest.raises(MissingResultsError) as excinfo:
            run_robustness_surface(
                "vertebral_2c", (0.01, 0.02), n_trials=3, store=store,
                cache_only=True, **SMALL_GRID,
            )
        assert "suite:vertebral_2c" in str(excinfo.value)

    def test_cache_only_requires_a_store(self):
        from repro.analysis.experiments import run_robustness_surface

        with pytest.raises(ValueError, match="cache_only requires a store"):
            run_robustness_surface(
                "vertebral_2c", (0.02,), store=None, cache_only=True,
                **SMALL_GRID,
            )

    def test_at_least_one_sigma_required(self):
        from repro.analysis.experiments import run_robustness_surface

        with pytest.raises(ValueError, match="sigma"):
            run_robustness_surface("vertebral_2c", (), **SMALL_GRID)

    def test_sigma_order_and_duplicates_canonicalized(self, tmp_path):
        from repro.analysis.experiments import run_robustness_surface

        store = ResultStore(cache_dir=tmp_path / "canon")
        kwargs = dict(n_trials=3, seed=0, store=store, **SMALL_GRID)
        first = run_robustness_surface("vertebral_2c", (0.01, 0.02), **kwargs)
        second = run_robustness_surface(
            "vertebral_2c", (0.02, 0.01, 0.02), **kwargs
        )
        assert first.sigmas == second.sigmas == (0.01, 0.02)
        assert first == second
        assert len(first.cells) == 2 * 4  # one per (sigma, grid point)

    def test_cells_alias_the_variation_pool(self, tmp_path):
        from repro.analysis.experiments import (
            run_robustness_surface,
            run_variation_analysis,
        )

        store = ResultStore(cache_dir=tmp_path / "pool")
        surface = run_robustness_surface(
            "vertebral_2c", (0.02,), n_trials=3, seed=0, store=store,
            **SMALL_GRID,
        )
        stores_before = store.stats.stores
        (analysis,) = run_variation_analysis(
            "vertebral_2c", (0.02,), n_trials=3, seed=0, depth=2,
            tau=0.0, store=store,
        )
        assert store.stats.stores == stores_before  # same entries, pure hits
        cell = surface.cell(0.02, 2, 0.0)
        assert cell.mean_accuracy_drop == pytest.approx(
            analysis.mean_accuracy_drop
        )
        assert cell.nominal_accuracy == pytest.approx(analysis.nominal_accuracy)

    def test_multi_sigma_shard_run_resolves_surface_cache_only(self, tmp_path):
        from repro.analysis.experiments import (
            clear_memo,
            run_plan_shard,
            run_robustness_surface,
        )
        from repro.core.sharding import ShardSpec, plan_suite_units

        plan = plan_suite_units(
            datasets=("vertebral_2c",), sigmas=(0.01, 0.02), n_trials=3,
            **SMALL_GRID,
        )
        store = ResultStore(cache_dir=tmp_path / "sharded")
        for index in (1, 2, 3):
            run_plan_shard(plan, ShardSpec(index, 3), store=store)
        assert plan.missing(store) == ()

        clear_memo()
        reader = ResultStore(cache_dir=tmp_path / "sharded")
        surface = run_robustness_surface(
            "vertebral_2c", (0.01, 0.02), n_trials=3, store=reader,
            cache_only=True, **SMALL_GRID,
        )
        assert reader.stats.misses == 0
        assert reader.stats.stores == 0
        # equal to a genuinely recomputed surface
        fresh = run_robustness_surface(
            "vertebral_2c", (0.01, 0.02), n_trials=3, store=None,
            **SMALL_GRID,
        )
        assert surface == fresh


class TestSurfaceCommand:
    def test_sigma_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["surface", "--datasets", "seeds"])

    def test_cache_only_against_cold_store_fails_loudly(self, capsys, tmp_path):
        assert main(
            ["surface", "--datasets", "vertebral_2c", "--sigma", "0.02",
             "--trials", "3", "--cache-only",
             "--cache-dir", str(tmp_path / "cold")]
        ) == 1
        captured = capsys.readouterr()
        assert "missing" in captured.err
        assert "run the missing shards" in captured.err
        assert captured.out == ""

    def test_surface_renders_table_json_and_html(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "surface.json"
        html_path = tmp_path / "surface.html"
        assert main(
            ["surface", "--datasets", "vertebral_2c", "--sigma", "0.02",
             "--trials", "2", "--cache-dir", str(tmp_path / "store"),
             "--json", str(json_path), "--html", str(html_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Robustness surface of vertebral_2c" in out
        assert "drop@20mV (%)" in out
        assert "per-sigma summary:" in out

        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "robustness_surface_report"
        [record] = payload["surfaces"]
        assert record["dataset"] == "vertebral_2c"
        assert record["sigmas"] == [0.02]
        assert len(record["cells"]) == 49
        assert record["summary"]["per_sigma"][0]["sigma_v"] == 0.02

        html = html_path.read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html and "script" not in html


class TestMultiSigmaSuiteCli:
    def test_list_units_enumerates_every_sigma(self, capsys):
        assert main(
            ["suite", "--datasets", "vertebral_2c",
             "--sigma", "0.01", "0.02", "--trials", "3", "--list-units"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("sigma=0.01]") == 49
        assert out.count("sigma=0.02]") == 49

    def test_table2_accepts_multiple_sigmas(self):
        args = build_parser().parse_args(
            ["table2", "--fast", "--sigma", "0.01", "0.02"]
        )
        assert args.sigma == [0.01, 0.02]

    @pytest.mark.slow
    def test_sharded_multi_sigma_assembles_byte_identical(self, capsys, tmp_path):
        """Acceptance: a 3-way sharded multi-sigma run + assemble renders
        each per-sigma offset-aware table byte-identically to the direct
        single-sigma ``table2`` command, and the surface resolves from the
        assembled store without a single miss."""
        cache = tmp_path / "store"
        base = ["--datasets", "vertebral_2c", "--sigma", "0.01", "0.02",
                "--trials", "3"]
        for index in (1, 2, 3):
            assert main(
                ["suite", *base, "--shard", f"{index}/3", "--jobs", "2",
                 "--cache-dir", str(cache)]
            ) == 0
        capsys.readouterr()

        out_dir = tmp_path / "artifacts"
        assert main(
            ["assemble", *base, "--cache-dir", str(cache),
             "--output-dir", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "0 misses" in out and "0 recomputed" in out

        for sigma, suffix in ((0.01, "10mV"), (0.02, "20mV")):
            assert main(
                ["table2", "--datasets", "vertebral_2c",
                 "--sigma", f"{sigma}", "--trials", "3",
                 "--cache-dir", str(cache)]
            ) == 0
            rendered = capsys.readouterr().out
            artifact = out_dir / f"table2_offset_aware_{suffix}.txt"
            assert artifact.read_text() == rendered

        assert main(
            ["surface", "--datasets", "vertebral_2c", "--sigma", "0.01",
             "0.02", "--trials", "3", "--cache-only",
             "--cache-dir", str(cache)]
        ) == 0
        assert "Robustness surface of vertebral_2c" in capsys.readouterr().out
