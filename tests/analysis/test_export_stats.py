"""Unit tests for the CSV/JSON export helpers and the multi-seed statistics."""

import csv
import json

import pytest

from repro.analysis.experiments import run_benchmark_suite
from repro.analysis.export import results_to_json, rows_to_csv
from repro.analysis import stats
from repro.analysis.stats import MetricStatistics, run_multi_seed
from repro.analysis.tables import table1_rows


@pytest.fixture(scope="module")
def single_result():
    (result,) = run_benchmark_suite(
        ("vertebral_2c",), seed=0, include_approximate_baseline=False,
        depths=(2, 3, 4), taus=(0.0, 0.01), store=None,
    )
    return result


class TestRowsToCsv:
    def test_roundtrip(self, tmp_path, single_result):
        rows = table1_rows([single_result])
        path = rows_to_csv(rows, tmp_path / "table1.csv")
        with path.open() as handle:
            loaded = list(csv.DictReader(handle))
        assert len(loaded) == len(rows)
        assert loaded[0]["dataset"] == "vertebral_2c"
        assert float(loaded[0]["total_power_mw"]) == pytest.approx(
            rows[0]["total_power_mw"]
        )

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            rows_to_csv([], tmp_path / "empty.csv")

    def test_inconsistent_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            rows_to_csv([{"a": 1}, {"b": 2}], tmp_path / "bad.csv")


class TestResultsToJson:
    def test_json_payload_structure(self, tmp_path, single_result):
        path = results_to_json([single_result], tmp_path / "results.json")
        payload = json.loads(path.read_text())
        assert len(payload) == 1
        entry = payload[0]
        assert entry["dataset"] == "vertebral_2c"
        assert entry["baseline"]["hardware"]["total_power_mw"] > 0
        assert "selected" in entry
        assert entry["approximate_baseline"] is None
        assert "exploration" not in entry

    def test_exploration_included_on_request(self, tmp_path, single_result):
        path = results_to_json(
            [single_result], tmp_path / "full.json", include_exploration=True
        )
        payload = json.loads(path.read_text())
        exploration = payload[0]["exploration"]
        assert len(exploration) == len(single_result.exploration)
        assert {"depth", "tau", "accuracy"} <= set(exploration[0])


class TestMetricStatistics:
    def test_from_values(self):
        stats = MetricStatistics.from_values("metric", [1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.values == (1.0, 2.0, 3.0)


class TestRunMultiSeed:
    def test_two_seed_summary(self):
        summary = run_multi_seed(
            "vertebral_2c",
            seeds=(0, 1),
            accuracy_loss=0.01,
            depths=(2, 3),
            taus=(0.0, 0.01),
        )
        assert summary.dataset == "vertebral_2c"
        assert summary.seeds == (0, 1)
        assert len(summary.codesign_power_mw.values) == 2
        assert summary.area_reduction_x.mean > 1.0
        assert summary.power_reduction_x.mean > 1.0
        assert 0.0 <= summary.self_powered_fraction <= 1.0
        # co-design must use (on average) far less power than the baseline
        assert summary.codesign_power_mw.mean < summary.baseline_power_mw.mean

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            run_multi_seed("seeds", seeds=())

    @pytest.mark.parametrize("loss", [float("nan"), -0.01], ids=repr)
    def test_invalid_loss_budget_rejected(self, loss):
        """Not reported as a co-design that silently fell back to the unary design."""
        with pytest.raises(ValueError, match="max_accuracy_loss"):
            run_multi_seed("seeds", seeds=(0,), accuracy_loss=loss,
                           depths=(2,), taus=(0.0,))

    @pytest.mark.parametrize("loss", [float("nan"), float("inf"), -0.01], ids=repr)
    def test_invalid_loss_budget_rejected_before_training(self, loss, monkeypatch):
        calls = []
        monkeypatch.setattr(
            stats, "run_benchmark_suite", lambda *args, **kwargs: calls.append(args)
        )
        with pytest.raises(ValueError, match="max_accuracy_loss must be a finite number"):
            run_multi_seed("seeds", seeds=(0, 1), accuracy_loss=loss)
        assert calls == []
