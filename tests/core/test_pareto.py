"""Unit tests for the Pareto-front utilities."""

import pytest

from repro.core.design import DesignSpec
from repro.core.exploration import DesignPoint, grid_points
from repro.core.metrics import HardwareReport
from repro.core.pareto import (
    accuracy_area_front,
    accuracy_power_front,
    dominates,
    non_dominated_indices,
    pareto_front,
)


def _point(accuracy, power_uw, area_mm2=1.0):
    hardware = HardwareReport(
        name=f"p{accuracy}-{power_uw}",
        adc_area_mm2=area_mm2 / 2,
        adc_power_uw=power_uw / 2,
        digital_area_mm2=area_mm2 / 2,
        digital_power_uw=power_uw / 2,
        n_inputs=2,
        n_tree_comparators=0,
        n_adc_comparators=3,
    )
    return DesignPoint(
        dataset="toy", depth=2, tau=0.0, accuracy=accuracy, hardware=hardware,
        tree=None,  # type: ignore[arg-type]
    )


class TestDominates:
    def test_strictly_better_everywhere_dominates(self):
        assert dominates((1.0, 2.0), (3.0, 4.0))

    def test_better_on_one_axis_equal_on_the_other_dominates(self):
        assert dominates((1.0, 2.0), (1.0, 3.0))

    def test_equal_tuples_do_not_dominate_each_other(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_tradeoff_dominates_neither_way(self):
        assert not dominates((1.0, 4.0), (2.0, 3.0))
        assert not dominates((2.0, 3.0), (1.0, 4.0))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))


class TestNonDominatedIndices:
    def test_empty_input_gives_empty_front(self):
        assert non_dominated_indices([]) == []

    def test_single_point_is_its_own_front(self):
        assert non_dominated_indices([(3.0, 7.0)]) == [0]

    def test_dominated_points_excluded_order_preserved(self):
        points = [(2.0, 3.0), (1.0, 4.0), (2.0, 4.0), (0.0, 9.0)]
        assert non_dominated_indices(points) == [0, 1, 3]

    def test_duplicate_objective_tuples_are_all_retained(self):
        # Equal tuples never dominate each other, so every copy survives --
        # a study must keep every trial that achieved the optimal tradeoff.
        points = [(1.0, 2.0), (1.0, 2.0), (0.0, 3.0), (1.0, 2.0)]
        assert non_dominated_indices(points) == [0, 1, 2, 3]

    def test_tie_on_one_axis_with_worse_other_axis_is_dominated(self):
        points = [(0.0, 1.0), (0.0, 2.0)]
        assert non_dominated_indices(points) == [0]

    def test_non_dominated_ties_on_different_axes_all_survive(self):
        points = [(0.0, 5.0), (5.0, 0.0), (0.0, 5.0)]
        assert non_dominated_indices(points) == [0, 1, 2]

    def test_three_objectives(self):
        points = [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (0.0, 2.0, 2.0)]
        assert non_dominated_indices(points) == [0, 2]


class TestParetoFront:
    def test_dominated_points_removed(self):
        points = [
            _point(0.90, 100.0),
            _point(0.85, 200.0),   # dominated: worse accuracy AND more power
            _point(0.95, 300.0),
            _point(0.80, 50.0),
        ]
        front = accuracy_power_front(points)
        accuracies = {p.accuracy for p in front}
        assert 0.85 not in accuracies
        assert {0.80, 0.90, 0.95} <= accuracies

    def test_front_sorted_by_minimized_objective(self):
        points = [_point(0.9, 300.0), _point(0.7, 100.0), _point(0.95, 500.0)]
        front = accuracy_power_front(points)
        powers = [p.hardware.total_power_uw for p in front]
        assert powers == sorted(powers)

    def test_single_point_is_its_own_front(self):
        points = [_point(0.5, 10.0)]
        assert accuracy_power_front(points) == points

    def test_identical_points_deduplicated(self):
        points = [_point(0.9, 100.0), _point(0.9, 100.0)]
        assert len(accuracy_power_front(points)) == 1

    def test_all_points_on_front_when_tradeoff_is_strict(self):
        points = [_point(0.6, 60.0), _point(0.7, 70.0), _point(0.8, 80.0)]
        assert len(accuracy_power_front(points)) == 3

    def test_area_front_uses_area_objective(self):
        cheap_area = _point(0.8, 500.0, area_mm2=1.0)
        small_power = _point(0.8, 100.0, area_mm2=5.0)
        area_front = accuracy_area_front([cheap_area, small_power])
        power_front = accuracy_power_front([cheap_area, small_power])
        assert cheap_area in area_front
        assert small_power in power_front

    def test_generic_pareto_front_with_custom_objectives(self):
        items = [(1, 10), (2, 5), (3, 20), (0, 1)]
        front = pareto_front(
            items, maximize=lambda t: t[0], minimize=lambda t: t[1]
        )
        assert (3, 20) in front and (2, 5) in front and (0, 1) in front
        assert (1, 10) not in front

    def test_front_of_real_exploration_is_nonempty(self, small_split, technology):
        X_train, X_test, y_train, y_test = small_split
        points = [
            DesignSpec("small", 0, depth, tau, technology=technology).evaluate_levels(
                X_train, y_train, X_test, y_test, 3
            )
            for depth, tau in grid_points((2, 3), (0.0, 0.02))
        ]
        front = accuracy_power_front(points)
        assert 1 <= len(front) <= len(points)
        best_accuracy = max(p.accuracy for p in points)
        assert any(p.accuracy == pytest.approx(best_accuracy) for p in front)
