"""Unit tests for the comparator-offset variation analysis."""

import numpy as np
import pytest

from repro.core.unary_tree import UnaryDecisionTree
from repro.core.variation import (
    ComparatorOffsetModel,
    simulate_offset_variation,
)
from repro.mltrees.cart import CARTTrainer


class TestComparatorOffsetModel:
    def test_zero_sigma_is_deterministic(self):
        model = ComparatorOffsetModel(sigma_v=0.0, mean_v=0.002)
        samples = model.sample(np.random.default_rng(0), 10)
        np.testing.assert_allclose(samples, 0.002)

    def test_samples_follow_requested_spread(self):
        model = ComparatorOffsetModel(sigma_v=0.05)
        samples = model.sample(np.random.default_rng(1), 5000)
        assert abs(samples.mean()) < 0.01
        assert 0.04 < samples.std() < 0.06

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ComparatorOffsetModel(sigma_v=-0.01)

    @pytest.mark.parametrize("field", ["sigma_v", "mean_v"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ComparatorOffsetModel(**{"sigma_v": 0.01, field: value})


class TestSimulateOffsetVariation:
    @pytest.fixture(scope="class")
    def evaluation_data(self, small_tree, small_split):
        _, X_test_levels, _, y_test = small_split
        X_raw = X_test_levels / 16.0
        return small_tree, X_raw, y_test

    def test_zero_offset_matches_nominal(self, evaluation_data, technology):
        tree, X, y = evaluation_data
        analysis = simulate_offset_variation(
            tree, X, y, sigma_v=0.0, n_trials=3, technology=technology, seed=0
        )
        assert analysis.mean_accuracy == pytest.approx(analysis.nominal_accuracy)
        assert analysis.std_accuracy == pytest.approx(0.0)
        assert analysis.mean_accuracy_drop == pytest.approx(0.0)

    def test_large_offsets_degrade_accuracy(self, evaluation_data, technology):
        tree, X, y = evaluation_data
        small = simulate_offset_variation(
            tree, X, y, sigma_v=0.005, n_trials=15, technology=technology, seed=1
        )
        large = simulate_offset_variation(
            tree, X, y, sigma_v=0.15, n_trials=15, technology=technology, seed=1
        )
        assert large.mean_accuracy <= small.mean_accuracy + 1e-9
        assert large.worst_case_drop >= 0.0

    def test_reproducible_per_seed(self, evaluation_data, technology):
        tree, X, y = evaluation_data
        first = simulate_offset_variation(
            tree, X, y, sigma_v=0.03, n_trials=10, technology=technology, seed=7
        )
        second = simulate_offset_variation(
            tree, X, y, sigma_v=0.03, n_trials=10, technology=technology, seed=7
        )
        assert first.accuracies == second.accuracies

    def test_accepts_unary_tree_directly(self, evaluation_data, technology):
        tree, X, y = evaluation_data
        unary = UnaryDecisionTree(tree)
        analysis = simulate_offset_variation(
            unary, X, y, sigma_v=0.02, n_trials=5, technology=technology, seed=0
        )
        assert len(analysis.accuracies) == 5
        assert 0.0 <= analysis.min_accuracy <= analysis.mean_accuracy <= 1.0

    def test_single_leaf_tree_is_immune(self, technology):
        X_levels = np.array([[3, 4], [5, 6], [2, 1]])
        y = np.array([1, 1, 1])
        tree = CARTTrainer(max_depth=2).fit(X_levels, y, n_classes=2)
        analysis = simulate_offset_variation(
            tree, X_levels / 16.0, y, sigma_v=0.2, n_trials=4, technology=technology
        )
        assert analysis.std_accuracy == 0.0
        assert analysis.mean_accuracy == pytest.approx(1.0)

    def test_invalid_trials_rejected(self, evaluation_data, technology):
        tree, X, y = evaluation_data
        with pytest.raises(ValueError):
            simulate_offset_variation(tree, X, y, sigma_v=0.01, n_trials=0)

    def test_empty_labels_rejected(self, evaluation_data):
        tree, X, y = evaluation_data
        with pytest.raises(ValueError, match="empty label"):
            simulate_offset_variation(tree, X[:0], y[:0], sigma_v=0.02, n_trials=3)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, evaluation_data, sigma):
        # An infinite sigma used to "simulate" to a mean accuracy far below
        # nominal instead of failing.
        tree, X, y = evaluation_data
        with pytest.raises(ValueError, match="finite"):
            simulate_offset_variation(tree, X, y, sigma_v=sigma, n_trials=3)

    def test_mean_accuracy_falls_as_offsets_grow(self, small_tree, small_split, technology):
        # A sigma sweep is one simulation per sigma.
        _, X_test_levels, _, y_test = small_split
        X_raw = X_test_levels / 16.0
        sigmas = (0.0, 0.02, 0.08)
        analyses = [
            simulate_offset_variation(
                small_tree, X_raw, y_test, sigma_v=sigma, n_trials=5,
                technology=technology, seed=0,
            )
            for sigma in sigmas
        ]
        assert [a.sigma_v for a in analyses] == list(sigmas)
        means = [a.mean_accuracy for a in analyses]
        assert means[0] >= means[-1] - 1e-9
