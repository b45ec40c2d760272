"""Golden-path and usage-error tests for ``repro.cli search``.

The budget is tiny and the space is the paper grid, so the command trains a
handful of shallow-to-medium trees; everything else (JSON record, HTML
dashboard, the cache-stats ``search`` section) is asserted on the artifacts
the command writes.
"""

import json

import pytest

from repro.cli import main
from repro.search import render_dashboard, render_surface


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "search-cache")


def run_search(cache_dir, *extra):
    return main(
        [
            "search", "--dataset", "seeds", "--budget", "3",
            "--batch-size", "3", "--cache-dir", cache_dir, *extra,
        ]
    )


class TestSearchCommand:
    def test_renders_table_and_writes_artifacts(self, capsys, tmp_path, cache_dir):
        json_path = tmp_path / "study.json"
        html_path = tmp_path / "pareto.html"
        exit_code = run_search(
            cache_dir, "--json", str(json_path), "--html", str(html_path)
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "Budgeted search of seeds" in out
        assert "3 trials" in out

        record = json.loads(json_path.read_text())
        assert record["kind"] == "search_study"
        assert record["dataset"] == "seeds"
        assert record["n_trials"] == 3
        assert record["n_trained"] == 3

        html = html_path.read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html and "seeds" in html
        # The dashboard is a pure function of the record.
        assert html == render_dashboard(record)

    def test_second_run_warm_starts_and_cache_stats_report_it(
        self, capsys, cache_dir
    ):
        assert run_search(cache_dir) == 0
        assert run_search(cache_dir) == 0
        assert "3 from cache / 0 trained" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["search"] == {
            "from_cache": 3,
            "trained": 3,
            "warm_start_rate": 0.5,
        }

    def test_human_cache_stats_mention_search_trials(self, capsys, cache_dir):
        assert run_search(cache_dir) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "0 trials from cache / 3 trained" in capsys.readouterr().out

    def test_unknown_objective_is_a_usage_error(self, capsys, cache_dir):
        exit_code = run_search(
            cache_dir, "--objective=-accuracy", "--objective", "latency"
        )
        assert exit_code == 2
        assert "unknown objective" in capsys.readouterr().err

    def test_mean_accuracy_drop_without_sigma_is_a_usage_error(
        self, capsys, cache_dir
    ):
        exit_code = run_search(
            cache_dir, "--objective=-accuracy", "--objective", "mean_accuracy_drop"
        )
        assert exit_code == 2
        assert "sigma" in capsys.readouterr().err

    def test_budget_and_dataset_required(self):
        with pytest.raises(SystemExit):
            main(["search", "--dataset", "seeds"])
        with pytest.raises(SystemExit):
            main(["search", "--budget", "3"])


class TestDashboardRendering:
    def record(self):
        return {
            "dataset": "toy",
            "seed": 0,
            "objectives": ["-accuracy", "power"],
            "n_trials": 2,
            "n_from_cache": 1,
            "n_trained": 1,
            "front": [1],
            "trials": [
                {
                    "number": 0,
                    "config": {"depth": 2, "tau": 0.0},
                    "from_cache": True,
                    "accuracy": 0.8,
                    "power_uw": 120.0,
                    "area_mm2": 2.0,
                    "mean_accuracy_drop": None,
                    "objectives": [-0.8, 120.0],
                },
                {
                    "number": 1,
                    "config": {"depth": 3, "tau": 0.005},
                    "from_cache": False,
                    "accuracy": 0.9,
                    "power_uw": 100.0,
                    "area_mm2": 3.0,
                    "mean_accuracy_drop": 0.01,
                    "objectives": [-0.9, 100.0],
                },
            ],
        }

    def test_deterministic_bytes(self):
        assert render_dashboard(self.record()) == render_dashboard(self.record())

    def test_front_trial_is_highlighted(self):
        html = render_dashboard(self.record())
        assert 'class="pt front"' in html
        assert 'class="on-front"' in html

    def test_missing_fields_rejected(self):
        record = self.record()
        del record["front"]
        with pytest.raises(ValueError, match="front"):
            render_dashboard(record)

    def test_empty_study_renders_placeholder(self):
        record = self.record()
        record["trials"] = []
        record["front"] = []
        assert "no trials" in render_dashboard(record)

    def test_config_values_are_escaped(self):
        record = self.record()
        record["dataset"] = "<script>alert(1)</script>"
        html = render_dashboard(record)
        assert "<script>" not in html


class TestSearchCacheOnly:
    def test_cold_store_fails_listing_missing_keys(self, capsys, cache_dir):
        exit_code = run_search(cache_dir, "--cache-only")
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "missing" in err
        assert "point:seeds[d=" in err

    def test_warm_store_passes_with_full_warm_start(self, capsys, cache_dir):
        assert run_search(cache_dir) == 0
        capsys.readouterr()
        assert run_search(cache_dir, "--cache-only") == 0
        assert "3 from cache / 0 trained" in capsys.readouterr().out


class TestSurfaceRendering:
    def record(self):
        return {
            "dataset": "toy",
            "seed": 0,
            "n_trials": 5,
            "training_sigma": 0.0,
            "robustness_weight": 1.0,
            "baseline_accuracy": 0.9,
            "sigmas": [0.01, 0.02],
            "depths": [2, 3],
            "taus": [0.0, 0.01],
            "cells": [
                {
                    "sigma_v": sigma,
                    "depth": depth,
                    "tau": tau,
                    "nominal_accuracy": 0.9,
                    "mean_accuracy": 0.9 - sigma,
                    "std_accuracy": 0.01,
                    "min_accuracy": 0.85,
                    "mean_accuracy_drop": sigma,
                    "worst_case_drop": 2 * sigma,
                }
                for sigma in (0.01, 0.02)
                for depth in (2, 3)
                for tau in (0.0, 0.01)
            ],
        }

    def test_deterministic_bytes(self):
        assert render_surface(self.record()) == render_surface(self.record())

    def test_single_record_equals_singleton_sequence(self):
        assert render_surface(self.record()) == render_surface([self.record()])

    def test_heatmap_cells_and_tooltips_present(self):
        html = render_surface(self.record())
        assert html.count('class="cell"') == 8
        assert "<title>" in html
        assert "10 mV" in html or "sigma 10" in html or "0.01" in html

    def test_missing_fields_rejected(self):
        record = self.record()
        del record["cells"]
        with pytest.raises(ValueError, match="cells"):
            render_surface(record)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            render_surface([])

    def test_dataset_name_is_escaped(self):
        record = self.record()
        record["dataset"] = "<script>alert(1)</script>"
        html = render_surface(record)
        assert "<script>" not in html
