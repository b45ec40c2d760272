"""Scalar-vs-batch equivalence of the vectorized inference engine.

The batch paths (matrix prediction in :class:`UnaryDecisionTree`, the
``(n_trials, n_comparators)`` offset evaluation in ``core.variation`` and the
batched netlist simulator behind the baselines) must be **bit-identical** to
the scalar per-row/per-trial semantics they replaced.  These tests pin that
property across every registered benchmark and several seeds, and keep a
faithful reimplementation of the pre-vectorization Monte-Carlo loop
(``tests/oracles/variation.py``) as the regression reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.unary_scalar import predict_from_assignment, predict_one_level
from oracles.variation import _predict_with_offsets_scalar
from repro.core.unary_tree import UnaryDecisionTree
from repro.core.variation import (
    ComparatorOffsetModel,
    _predict_with_offsets,
    simulate_offset_variation,
)
from repro.datasets.registry import dataset_names, load_dataset
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import accuracy_score, train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.pdk.egfet import default_technology

SEEDS = (0, 1)


def _fitted_unary(dataset_name: str, seed: int, max_rows: int = 300):
    """Small tree + raw/quantized test split of one registered benchmark."""
    dataset = load_dataset(dataset_name, seed=seed)
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=seed
    )
    tree = CARTTrainer(max_depth=3, seed=seed).fit(
        quantize_dataset(X_train[:max_rows]), y_train[:max_rows], dataset.n_classes
    )
    return UnaryDecisionTree(tree), X_test[:max_rows], y_test[:max_rows]


class TestUnaryTreeBatchEquivalence:
    @pytest.mark.parametrize("dataset_name", dataset_names())
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_predict_matches_scalar_rows(self, dataset_name, seed):
        unary, X_test, _ = _fitted_unary(dataset_name, seed)
        levels = quantize_dataset(X_test)
        batch = unary.predict_levels(levels)
        scalar = np.array(
            [predict_one_level(unary, row) for row in levels], dtype=np.int64
        )
        np.testing.assert_array_equal(batch, scalar)

    def test_digit_matrix_columns_follow_comparator_order(self, small_tree):
        unary = UnaryDecisionTree(small_tree)
        levels = np.random.default_rng(3).integers(0, 16, size=(200, small_tree.n_features))
        digits = np.column_stack(
            [levels[:, feature] >= level for feature, level in unary.comparators]
        )
        assert digits.shape == (200, unary.n_unary_digits)
        np.testing.assert_array_equal(
            unary.predict_levels(levels), unary.predict_digit_matrix(digits)
        )

    def test_digit_matrix_prediction_matches_scalar_on_arbitrary_digits(
        self, small_tree
    ):
        """Batch and scalar agree on *any* digit row -- winner and raise alike."""
        unary = UnaryDecisionTree(small_tree)
        names = unary.digit_variables()
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2, size=(256, unary.n_unary_digits)).astype(bool)
        for row in rows:
            assignment = dict(zip(names, (bool(bit) for bit in row)))
            try:
                scalar = predict_from_assignment(unary, assignment)
            except ValueError:
                with pytest.raises(ValueError, match="no label function fired"):
                    unary.predict_digit_matrix(row[np.newaxis, :])
                continue
            assert unary.predict_digit_matrix(row[np.newaxis, :])[0] == scalar

    def test_empty_batch_predicts_empty(self, small_tree):
        unary = UnaryDecisionTree(small_tree)
        levels = np.empty((0, small_tree.n_features), dtype=np.int64)
        assert unary.predict_levels(levels).shape == (0,)


class TestOffsetMatrixEquivalence:
    @pytest.mark.parametrize("dataset_name", ("seeds", "vertebral_3c", "balance_scale"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_offset_matrix_matches_scalar_loop(self, dataset_name, seed):
        unary, X_test, _ = _fitted_unary(dataset_name, seed)
        technology = default_technology()
        rng = np.random.default_rng(seed)
        model = ComparatorOffsetModel(sigma_v=0.03)
        comparators = unary.comparators
        offsets_matrix = model.sample_matrix(rng, 5, len(comparators))
        batch = _predict_with_offsets(unary, X_test, offsets_matrix, technology.vdd)
        for trial, offsets_row in enumerate(offsets_matrix):
            scalar = _predict_with_offsets_scalar(
                unary, X_test, dict(zip(comparators, offsets_row)), technology.vdd
            )
            np.testing.assert_array_equal(batch[trial], scalar)

    def test_sample_matrix_preserves_the_sequential_draw_stream(self):
        model = ComparatorOffsetModel(sigma_v=0.02)
        matrix = model.sample_matrix(np.random.default_rng(11), 7, 9)
        rng = np.random.default_rng(11)
        sequential = np.stack([model.sample(rng, 9) for _ in range(7)])
        np.testing.assert_array_equal(matrix, sequential)

    def test_offset_matrix_column_count_checked(self, small_tree):
        unary = UnaryDecisionTree(small_tree)
        with pytest.raises(ValueError, match="columns"):
            _predict_with_offsets(
                unary,
                np.zeros((2, small_tree.n_features)),
                np.zeros((3, unary.n_unary_digits + 1)),
                1.0,
            )


class TestSimulateOffsetVariationRegression:
    """``simulate_offset_variation(seed=k)`` is bit-identical to the old loop."""

    def _reference_accuracies(self, unary, X, y, sigma_v, n_trials, seed, vdd):
        """The pre-vectorization implementation, kept verbatim as the oracle."""
        rng = np.random.default_rng(seed)
        model = ComparatorOffsetModel(sigma_v=sigma_v)
        comparators = [
            (feature, level)
            for feature, levels in unary.required_digits.items()
            for level in levels
        ]
        accuracies = []
        for _ in range(n_trials):
            samples = model.sample(rng, len(comparators))
            offsets = dict(zip(comparators, samples))
            predictions = _predict_with_offsets_scalar(unary, X, offsets, vdd)
            accuracies.append(accuracy_score(y, predictions))
        return tuple(accuracies)

    @pytest.mark.parametrize("seed", (0, 7))
    def test_bit_identical_to_pre_refactor_loop(self, small_tree, small_split, seed):
        _, X_test_levels, _, y_test = small_split
        X_raw = X_test_levels / 16.0
        unary = UnaryDecisionTree(small_tree)
        technology = default_technology()
        analysis = simulate_offset_variation(
            unary, X_raw, y_test, sigma_v=0.03, n_trials=8,
            technology=technology, seed=seed,
        )
        reference = self._reference_accuracies(
            unary, X_raw, y_test, 0.03, 8, seed, technology.vdd
        )
        assert analysis.accuracies == reference
