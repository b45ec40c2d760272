"""Unit tests for the design-space exploration and constrained selection."""

import dataclasses

import pytest

from repro.core.codesign import CoDesignFramework
from repro.core.design import DesignSpec
from repro.core.exploration import (
    DEFAULT_DEPTHS,
    DEFAULT_TAUS,
    grid_points,
    proposed_hardware_report,
    select_best_design,
)
from repro.core.variation import VariationAnalysis


def _evaluate_grid(small_split, technology, depths, taus):
    """The small split's design points over one grid, in grid order."""
    X_train, X_test, y_train, y_test = small_split
    return [
        DesignSpec("small", 0, depth, tau, technology=technology).evaluate_levels(
            X_train, y_train, X_test, y_test, 3
        )
        for depth, tau in grid_points(depths, taus)
    ]


def _analysis(nominal: float, mean: float, minimum: float) -> VariationAnalysis:
    return VariationAnalysis(
        nominal_accuracy=nominal,
        mean_accuracy=mean,
        std_accuracy=0.0,
        min_accuracy=minimum,
        accuracies=(mean,),
        sigma_v=0.02,
    )


class TestDefaults:
    def test_paper_grids(self):
        assert DEFAULT_DEPTHS == (2, 3, 4, 5, 6, 7, 8)
        assert DEFAULT_TAUS == (0.0, 0.005, 0.010, 0.015, 0.020, 0.025, 0.030)


class TestProposedHardwareReport:
    def test_no_tree_comparators_in_proposed_architecture(self, small_tree, technology):
        report = proposed_hardware_report(small_tree, technology)
        assert report.n_tree_comparators == 0
        assert report.n_adc_comparators == len(small_tree.unique_comparisons())
        assert report.n_inputs == len(small_tree.used_features())
        assert report.total_area_mm2 > 0
        assert report.total_power_uw > 0

    def test_cheaper_than_baseline(self, small_tree, technology):
        from repro.baselines.mubarik import BaselineBespokeDesign

        baseline = BaselineBespokeDesign(small_tree, technology).hardware_report()
        proposed = proposed_hardware_report(small_tree, technology)
        assert proposed.total_area_mm2 < baseline.total_area_mm2
        assert proposed.total_power_uw < baseline.total_power_uw


class TestGridEvaluation:
    @pytest.fixture(scope="class")
    def points(self, small_split, technology):
        return _evaluate_grid(small_split, technology, (2, 3), (0.0, 0.02))

    def test_grid_is_depth_major(self, points):
        assert [(p.depth, p.tau) for p in points] == [
            (2, 0.0), (2, 0.02), (3, 0.0), (3, 0.02)
        ]

    def test_point_fields(self, points):
        for point in points:
            assert 0.0 <= point.accuracy <= 1.0
            assert point.dataset == "small"
            assert point.total_area_mm2 == point.hardware.total_area_mm2
            assert point.total_power_uw == point.hardware.total_power_uw
            assert point.tree.depth <= point.depth

    def test_empty_grid_rejected(self, technology):
        with pytest.raises(ValueError, match="grid must not be empty"):
            CoDesignFramework(technology=technology, depths=(), taus=(0.0,))


class TestSelectBestDesign:
    @pytest.fixture(scope="class")
    def points(self, small_split, technology):
        return _evaluate_grid(small_split, technology, (2, 3, 4), (0.0, 0.03))

    def test_selected_point_respects_accuracy_floor(self, points):
        reference = max(point.accuracy for point in points)
        chosen = select_best_design(points, reference, 0.01)
        assert chosen is not None
        assert chosen.accuracy >= reference - 0.01 - 1e-12

    def test_power_objective_picks_minimum_power(self, points):
        reference = min(point.accuracy for point in points)  # everything feasible
        chosen = select_best_design(points, reference, 0.0, objective="power")
        assert chosen.hardware.total_power_uw == pytest.approx(
            min(point.hardware.total_power_uw for point in points)
        )

    def test_area_objective_picks_minimum_area(self, points):
        reference = min(point.accuracy for point in points)
        chosen = select_best_design(points, reference, 0.0, objective="area")
        assert chosen.hardware.total_area_mm2 == pytest.approx(
            min(point.hardware.total_area_mm2 for point in points)
        )

    def test_unsatisfiable_constraint_returns_none(self, points):
        assert select_best_design(points, 2.0, 0.0) is None

    def test_larger_loss_budget_never_increases_power(self, points):
        reference = max(point.accuracy for point in points)
        strict = select_best_design(points, reference, 0.0)
        relaxed = select_best_design(points, reference, 0.10)
        if strict is not None and relaxed is not None:
            assert relaxed.hardware.total_power_uw <= strict.hardware.total_power_uw

    def test_invalid_objective_rejected(self, points):
        with pytest.raises(ValueError):
            select_best_design(points, 0.5, 0.01, objective="delay")

    def test_unanalyzed_points_infeasible_under_drop_constraint(self, points):
        reference = min(point.accuracy for point in points)
        assert select_best_design(points, reference, 0.0, max_accuracy_drop=1.0) is None

    def test_drop_constraint_filters_fragile_points(self, points):
        reference = min(point.accuracy for point in points)
        # Make every point robust except the unconstrained power winner.
        unconstrained = select_best_design(points, reference, 0.0)
        annotated = [
            point.with_robustness(
                _analysis(point.accuracy, point.accuracy - 0.10, point.accuracy - 0.20)
                if point is unconstrained
                else _analysis(point.accuracy, point.accuracy - 0.001, point.accuracy - 0.01)
            )
            for point in points
        ]
        chosen = select_best_design(annotated, reference, 0.0, max_accuracy_drop=0.02)
        assert chosen is not None
        assert chosen.mean_accuracy_drop <= 0.02 + 1e-12
        assert (chosen.depth, chosen.tau) != (unconstrained.depth, unconstrained.tau)

    def test_unsatisfiable_drop_constraint_returns_none(self, points):
        reference = min(point.accuracy for point in points)
        annotated = [
            point.with_robustness(
                _analysis(point.accuracy, point.accuracy - 0.5, point.accuracy - 0.5)
            )
            for point in points
        ]
        assert (
            select_best_design(annotated, reference, 0.0, max_accuracy_drop=0.01)
            is None
        )


class TestDesignPointRobustnessColumns:
    def test_with_robustness_returns_annotated_copy(self, small_tree, technology):
        from repro.core.exploration import DesignPoint

        point = DesignPoint(
            dataset="small",
            depth=4,
            tau=0.0,
            accuracy=0.9,
            hardware=proposed_hardware_report(small_tree, technology),
            tree=small_tree,
        )
        annotated = point.with_robustness(_analysis(0.9, 0.88, 0.8))
        assert point.robustness is None
        assert annotated.mean_accuracy_drop == pytest.approx(0.02)
        assert annotated.worst_case_drop == pytest.approx(0.10)
        assert dataclasses.replace(annotated, robustness=None) == point


class TestVariationKeyTestSize:
    def test_non_default_split_addresses_distinct_entries(self):
        from repro.core.design import DesignSpec

        default = DesignSpec("seeds", 0, 3, 0.01).variation_key(0.02, 10)
        explicit = DesignSpec("seeds", 0, 3, 0.01, test_size=0.3).variation_key(0.02, 10)
        half = DesignSpec("seeds", 0, 3, 0.01, test_size=0.5).variation_key(0.02, 10)
        assert default == explicit
        assert default != half
