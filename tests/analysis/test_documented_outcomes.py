"""Outcomes the verify recipe promises that no other test pins.

Each test runs the recipe's CLI commands in-process, as a shell would run
them, and checks the promised outcome: serial and parallel runs print the
same bytes, a report-costed run never writes analytic-cost entries, and the
test suite never reaches the user's default store or registry.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.design import DesignSpec
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS
from repro.core.store import ResultStore, default_cache_dir
from repro.serve.registry import default_registry_dir

DATASETS = ["seeds", "vertebral_2c"]


def _stdout(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _report_file(tmp_path) -> Path:
    payload = {
        "schema_version": 1,
        "kind": "ppa_report",
        "source": "outcome-test",
        "modules": {"*": {"area_mm2": 7.5, "power_uw": 321.0}},
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.parametrize("table", ["table1", "table2"])
def test_tables_print_the_same_bytes_at_one_and_two_jobs(table, capsys):
    argv = [table, "--datasets", *DATASETS, "--no-cache", "--jobs"]
    assert _stdout(capsys, argv + ["1"]) == _stdout(capsys, argv + ["2"])


def test_surface_prints_the_same_bytes_at_one_and_two_jobs(capsys):
    argv = ["surface", "--datasets", *DATASETS, "--sigma", "0.01", "0.02",
            "--trials", "20", "--no-cache", "--jobs"]
    assert _stdout(capsys, argv + ["1"]) == _stdout(capsys, argv + ["2"])


class TestReportBackedRuns:
    def test_explore_writes_only_variation_entries(self, tmp_path, capsys):
        """Variation entries are accuracy-only; design points and the
        reference carry analytic costs, so a report-costed run writes neither."""
        cache = tmp_path / "cache"
        _stdout(capsys, [
            "explore", "--dataset", "vertebral_2c", "--sigma", "0.02", "--trials", "4",
            "--ppa-backend", str(_report_file(tmp_path)), "--cache-dir", str(cache),
        ])
        store = ResultStore(cache)
        specs = [
            DesignSpec("vertebral_2c", 0, depth, tau)
            for depth in DEFAULT_DEPTHS for tau in DEFAULT_TAUS
        ]
        expected = {store.path_for(spec.variation_key(0.02, 4)).name for spec in specs}
        assert len(expected) == 49
        assert {path.name for path in cache.glob("*.pkl")} == expected

    def test_cache_only_with_a_report_backend_is_refused(self, tmp_path, capsys):
        argv = [
            "surface", "--datasets", "seeds", "--sigma", "0.02", "--cache-only",
            "--ppa-backend", str(_report_file(tmp_path)),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 2
        assert "requires the analytic PPA backend" in capsys.readouterr().err


def test_tests_never_reach_the_default_store_or_registry():
    """The autouse fixture points both default directories at temp dirs."""
    user_dir = Path.home() / ".cache" / "repro"
    for directory in (default_cache_dir(), default_registry_dir()):
        assert user_dir not in (directory, *directory.parents)
