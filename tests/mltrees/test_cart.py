"""Unit tests for the conventional CART trainer and baseline depth selection."""

import numpy as np
import pytest

from repro.core.adc_aware_training import ADCAwareTrainer
from repro.mltrees.cart import CARTTrainer, fit_baseline_tree
from repro.mltrees.evaluation import accuracy_score
from repro.mltrees.tree import LEAF


class TestCARTTrainerBasics:
    def test_perfectly_separable_data_is_learned(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        tree = CARTTrainer(max_depth=2, seed=0).fit(X_levels, y)
        np.testing.assert_array_equal(tree.predict_levels(X_levels), y)
        assert tree.depth == 1  # one split suffices

    def test_max_depth_respected(self, small_split):
        X_train, _, y_train, _ = small_split
        for depth in (1, 2, 3):
            tree = CARTTrainer(max_depth=depth, seed=0).fit(X_train, y_train, 3)
            assert tree.depth <= depth

    def test_deeper_trees_fit_training_data_at_least_as_well(self, small_split):
        X_train, _, y_train, _ = small_split
        accuracies = []
        for depth in (1, 2, 4, 6):
            tree = CARTTrainer(max_depth=depth, seed=0).fit(X_train, y_train, 3)
            accuracies.append(accuracy_score(y_train, tree.predict_levels(X_train)))
        assert all(b >= a - 1e-9 for a, b in zip(accuracies, accuracies[1:]))

    def test_reproducible_for_same_seed(self, small_split):
        X_train, _, y_train, _ = small_split
        tree_a = CARTTrainer(max_depth=4, seed=11).fit(X_train, y_train, 3)
        tree_b = CARTTrainer(max_depth=4, seed=11).fit(X_train, y_train, 3)
        assert tree_a.comparisons() == tree_b.comparisons()

    def test_min_samples_leaf_enforced(self, small_split):
        X_train, _, y_train, _ = small_split
        tree = CARTTrainer(max_depth=6, min_samples_leaf=10, seed=0).fit(
            X_train, y_train, 3
        )
        assert (tree.n_samples[tree.feature == LEAF] >= 10).all()

    def test_pure_dataset_returns_single_leaf(self):
        X_levels = np.array([[1, 2], [3, 4], [5, 6]])
        y = np.array([1, 1, 1])
        tree = CARTTrainer(max_depth=3, seed=0).fit(X_levels, y, n_classes=2)
        assert tree.n_decision_nodes == 0
        assert tree.prediction.tolist() == [1]

    def test_class_counts_recorded_on_nodes(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        tree = CARTTrainer(max_depth=2, seed=0).fit(X_levels, y)
        assert tree.class_counts[0].tolist() == [4, 4]
        assert tree.n_samples[0] == 8


class TestCARTTrainerValidation:
    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            CARTTrainer(max_depth=0)
        with pytest.raises(ValueError):
            CARTTrainer(resolution_bits=0)
        with pytest.raises(ValueError):
            CARTTrainer(min_samples_leaf=0)

    def test_shape_mismatch_rejected(self):
        trainer = CARTTrainer(max_depth=2)
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((4, 2), dtype=int), np.zeros(3, dtype=int))

    def test_empty_dataset_rejected(self):
        trainer = CARTTrainer(max_depth=2)
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((0, 2), dtype=int), np.zeros(0, dtype=int))

    def test_levels_out_of_range_rejected(self):
        trainer = CARTTrainer(max_depth=2, resolution_bits=4)
        X_levels = np.array([[16, 2], [1, 2]])
        with pytest.raises(ValueError):
            trainer.fit(X_levels, np.array([0, 1]))

    def test_1d_input_rejected(self):
        trainer = CARTTrainer(max_depth=2)
        with pytest.raises(ValueError):
            trainer.fit(np.zeros(4, dtype=int), np.zeros(4, dtype=int))


@pytest.mark.parametrize("trainer_cls", [CARTTrainer, ADCAwareTrainer])
class TestFitNamesBadInput:
    """Both trainers share one validation block; bad input fails by name."""

    X_LEVELS = np.array([[0, 3], [5, 9], [12, 1], [15, 7]])

    def test_label_beyond_n_classes(self, trainer_cls):
        with pytest.raises(ValueError, match=r"class labels must lie in \[0, 1\]"):
            trainer_cls(max_depth=2).fit(self.X_LEVELS, [0, 1, 2, 2], n_classes=2)

    @pytest.mark.parametrize("n_classes", [None, 3])
    def test_negative_label(self, trainer_cls, n_classes):
        with pytest.raises(ValueError, match="class labels must lie in"):
            trainer_cls(max_depth=2).fit(self.X_LEVELS, [0, -1, 1, 2], n_classes)

    def test_zero_feature_columns(self, trainer_cls):
        with pytest.raises(ValueError, match="at least one feature column"):
            trainer_cls(max_depth=2).fit(np.zeros((4, 0), dtype=int), [0, 1, 0, 1])

    def test_2d_labels(self, trainer_cls):
        with pytest.raises(ValueError, match="1-D label vector"):
            trainer_cls(max_depth=2).fit(self.X_LEVELS, [[0], [1], [0], [1]])


class TestBaselineDepthSelection:
    def test_selects_minimum_depth_achieving_max_accuracy(self, small_split):
        X_train, X_test, y_train, y_test = small_split
        result = fit_baseline_tree(X_train, y_train, X_test, y_test, 3, max_depth=6)
        best = max(result.accuracy_by_depth.values())
        assert result.test_accuracy == pytest.approx(best)
        shallower_with_best = [
            depth for depth, accuracy in result.accuracy_by_depth.items()
            if accuracy >= best - 1e-12
        ]
        assert result.depth == min(shallower_with_best)

    def test_zero_max_depth_rejected(self, small_split):
        X_train, X_test, y_train, y_test = small_split
        with pytest.raises(ValueError, match="max_depth must be at least 1"):
            fit_baseline_tree(X_train, y_train, X_test, y_test, 3, max_depth=0)

    def test_accuracy_by_depth_covers_requested_range(self, small_split):
        X_train, X_test, y_train, y_test = small_split
        result = fit_baseline_tree(X_train, y_train, X_test, y_test, 3, max_depth=4)
        assert sorted(result.accuracy_by_depth) == [1, 2, 3, 4]

    def test_returned_tree_matches_reported_accuracy(self, small_split):
        X_train, X_test, y_train, y_test = small_split
        result = fit_baseline_tree(X_train, y_train, X_test, y_test, 3, max_depth=5)
        measured = accuracy_score(y_test, result.tree.predict_levels(X_test))
        assert measured == pytest.approx(result.test_accuracy)
        assert result.tree.depth <= result.depth
