"""Unit tests for rendering, figure series and table rows."""

import pytest

from repro.analysis.experiments import run_benchmark_suite
from repro.analysis.figures import fig3_series, fig4_series, fig5_series
from repro.analysis.render import render_table
from repro.analysis.tables import table1_rows, table1_summary, table2_rows, table2_summary


@pytest.fixture(scope="module")
def suite_results():
    """Two small benchmarks on a tiny grid, standing in for the full suite."""
    return run_benchmark_suite(
        ("seeds", "vertebral_2c"), seed=0, include_approximate_baseline=True,
        depths=(2, 3), taus=(0.0, 0.02), store=None,
    )


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(["name", "value"], [["a", 1.2345], ["long_name", 42]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.23" in text
        assert "long_name" in text

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only_one"]])

    def test_boolean_and_inf_formatting(self):
        text = render_table(["flag", "x"], [[True, float("inf")]])
        assert "yes" in text
        assert "inf" in text


class TestFig3Series:
    def test_covers_every_window(self, technology):
        series = fig3_series(technology, resolution_bits=4)
        # sum over n of (15 - n + 1) windows = 120 points for 4 bits
        assert len(series["points"]) == 120
        assert series["conventional_area_mm2"] > 10.0

    def test_area_constant_within_digit_count(self, technology):
        series = fig3_series(technology)
        by_count = {}
        for point in series["points"]:
            by_count.setdefault(point["n_unary_digits"], set()).add(
                round(point["area_mm2"], 9)
            )
        assert all(len(areas) == 1 for areas in by_count.values())

    def test_power_grows_with_start_level(self, technology):
        series = fig3_series(technology)
        four_ud = [p for p in series["points"] if p["n_unary_digits"] == 4]
        four_ud.sort(key=lambda p: p["start_level"])
        powers = [p["power_uw"] for p in four_ud]
        assert powers == sorted(powers)
        assert powers[-1] > 2.5 * powers[0]

    def test_every_bespoke_point_cheaper_than_conventional(self, technology):
        series = fig3_series(technology)
        for point in series["points"]:
            assert point["area_mm2"] < series["conventional_area_mm2"]
            assert point["power_uw"] < series["conventional_power_uw"]


class TestFig4Fig5Series:
    def test_fig4_rows_and_averages(self, suite_results):
        series = fig4_series(suite_results)
        assert len(series["rows"]) == 2
        for row in series["rows"]:
            assert row["area_reduction_x"] > 1.0
            assert row["power_reduction_x"] > 1.0
        assert series["average_area_reduction_x"] > 1.0

    def test_fig5_panels(self, suite_results):
        panels = fig5_series(suite_results, accuracy_losses=(0.0, 0.05))
        assert set(panels) == {0.0, 0.05}
        for panel in panels.values():
            assert len(panel["rows"]) <= 2
            for row in panel["rows"]:
                assert row["area_reduction_pct"] <= 100.0

    def test_fig4_empty_input(self):
        series = fig4_series([])
        assert series["rows"] == []
        assert series["average_area_reduction_x"] == 0.0


class TestTables:
    def test_table1_rows_fields(self, suite_results):
        rows = table1_rows(suite_results)
        assert len(rows) == 2
        for row in rows:
            assert 0.0 <= row["accuracy_pct"] <= 100.0
            assert row["total_area_mm2"] >= row["adc_area_mm2"]
            assert row["total_power_mw"] >= row["adc_power_mw"]
            assert 0.0 <= row["adc_power_fraction"] <= 1.0

    def test_table1_summary(self, suite_results):
        summary = table1_summary(table1_rows(suite_results))
        assert summary["average_total_area_mm2"] > 0
        assert 0.0 < summary["average_adc_power_fraction"] <= 1.0

    def test_table1_summary_empty(self):
        summary = table1_summary([])
        assert summary["average_total_power_mw"] == 0.0

    def test_table2_rows_fields(self, suite_results):
        rows = table2_rows(suite_results, accuracy_loss=0.01)
        assert rows, "at least one selected design expected"
        for row in rows:
            assert row["area_reduction_vs_baseline_x"] > 1.0
            assert row["power_reduction_vs_baseline_x"] > 1.0
            assert isinstance(row["self_powered"], bool)

    def test_table2_summary(self, suite_results):
        summary = table2_summary(table2_rows(suite_results))
        assert summary["average_power_reduction_vs_baseline_x"] > 1.0

    def test_table2_summary_empty(self):
        summary = table2_summary([])
        assert summary["average_area_mm2"] == 0.0


class TestRobustTables:
    @pytest.fixture(scope="class")
    def exploration(self):
        from repro.analysis.experiments import RobustExploration, run_robust_exploration

        result = run_robust_exploration(
            "vertebral_2c", sigma_v=0.02, n_trials=5, seed=0,
            depths=(2, 3), taus=(0.0, 0.01), store=None,
        )
        assert isinstance(result, RobustExploration)
        return result

    def test_exploration_rows_carry_drop_columns(self, exploration):
        from repro.analysis.tables import exploration_rows

        rows = exploration_rows(exploration.points)
        assert len(rows) == 4
        for row, point in zip(rows, exploration.points):
            assert row["depth"] == point.depth
            assert row["mean_accuracy_drop_pct"] == pytest.approx(
                point.mean_accuracy_drop * 100.0
            )
            assert row["worst_case_drop_pct"] == pytest.approx(
                point.worst_case_drop * 100.0
            )

    def test_exploration_rows_none_before_the_pass(self, exploration):
        import dataclasses

        from repro.analysis.tables import exploration_rows

        nominal = [
            dataclasses.replace(point, robustness=None)
            for point in exploration.points
        ]
        rows = exploration_rows(nominal)
        assert all(row["mean_accuracy_drop_pct"] is None for row in rows)
        assert all(row["worst_case_drop_pct"] is None for row in rows)

    def test_table2_robust_rows_select_under_joint_constraint(self, exploration):
        from repro.analysis.tables import table2_robust_rows, table2_robust_summary

        rows = table2_robust_rows(
            [exploration], accuracy_loss=0.05, max_accuracy_drop=1.0
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["feasible"] is True
        assert row["dataset"] == "vertebral_2c"
        assert row["sigma_mv"] == pytest.approx(20.0)
        assert row["mean_accuracy_drop_pct"] is not None
        summary = table2_robust_summary(rows)
        assert summary["n_feasible"] == 1
        assert summary["average_power_mw"] == pytest.approx(row["power_mw"])

    @staticmethod
    def _unanalyzed(exploration):
        """The exploration without robustness summaries: infeasible under any drop budget."""
        import dataclasses

        return dataclasses.replace(exploration, points=tuple(
            dataclasses.replace(point, robustness=None) for point in exploration.points
        ))

    def test_table2_robust_rows_report_infeasible_benchmarks(self, exploration):
        from repro.analysis.tables import table2_robust_rows, table2_robust_summary

        rows = table2_robust_rows(
            [self._unanalyzed(exploration)], accuracy_loss=0.05, max_accuracy_drop=1.0
        )
        assert rows[0]["feasible"] is False
        assert rows[0]["power_mw"] is None
        summary = table2_robust_summary(rows)
        assert summary["n_feasible"] == 0
        # Regression: zero feasible rows used to report 0.0 "averages" --
        # averages over nothing are undefined, not zero.
        assert summary["average_power_mw"] is None
        assert summary["average_area_mm2"] is None
        assert summary["average_mean_accuracy_drop_pct"] is None

    def test_table2_robust_render_prints_na_when_nothing_feasible(
        self, exploration
    ):
        from repro.cli import _render_table2_robust

        text = _render_table2_robust(
            [self._unanalyzed(exploration)], sigma=0.02, trials=5,
            training_sigma=0.0, max_accuracy_drop=1.0,
        )
        assert "averages: n/a (no feasible designs)" in text
        assert "0/1 benchmarks feasible" in text

    def test_surface_rows_carry_per_sigma_drop_columns(self, exploration):
        from repro.analysis.experiments import run_robustness_surface
        from repro.analysis.tables import (
            robustness_surface_rows,
            robustness_surface_summary,
        )

        surface = run_robustness_surface(
            "vertebral_2c", (0.01, 0.02), n_trials=5, seed=0,
            depths=(2, 3), taus=(0.0, 0.01), store=None,
        )
        rows = robustness_surface_rows(surface)
        assert len(rows) == 4  # one per (depth, tau)
        for row in rows:
            assert len(row["mean_drop_pct_by_sigma"]) == 2
            assert len(row["worst_drop_pct_by_sigma"]) == 2
        # the 20 mV column agrees with the single-sigma exploration fixture
        lookup = {
            (row["depth"], row["tau"]): row["mean_drop_pct_by_sigma"][1]
            for row in rows
        }
        for point in exploration.points:
            assert lookup[(point.depth, point.tau)] == pytest.approx(
                point.mean_accuracy_drop * 100.0
            )

        summary = robustness_surface_summary(surface)
        assert [entry["sigma_v"] for entry in summary["per_sigma"]] == [0.01, 0.02]
        for entry in summary["per_sigma"]:
            assert (
                entry["max_mean_accuracy_drop_pct"]
                >= entry["average_mean_accuracy_drop_pct"]
            )
