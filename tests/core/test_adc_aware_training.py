"""Unit tests for the ADC-aware trainer (Algorithm 1)."""

import numpy as np
import pytest

from oracles.legacy_split_search import table_from_candidates
from repro.core.adc_aware_training import ADCAwareTrainer, partition_by_cost
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import accuracy_score
from repro.mltrees.split_search import SplitCandidate


def _candidate(feature, level, gini=0.1):
    return SplitCandidate(feature=feature, threshold_level=level, gini=gini,
                          n_left=5, n_right=5)


class TestPartitionByCost:
    def test_three_way_partition(self):
        candidates = table_from_candidates([
            _candidate(0, 3),   # already selected -> zero cost
            _candidate(0, 7),   # feature known, new level -> medium cost
            _candidate(2, 1),   # new feature -> high cost
        ])
        sets = partition_by_cost(candidates, {(0, 3)})
        assert sets.zero_cost.threshold_level.tolist() == [3]
        assert sets.medium_cost.threshold_level.tolist() == [7]
        assert sets.high_cost.feature.tolist() == [2]

    def test_placed_pair_makes_its_input_known(self):
        candidates = table_from_candidates([_candidate(0, 7), _candidate(1, 3)])
        sets = partition_by_cost(candidates, {(1, 9)})
        assert not sets.zero_cost
        assert sets.medium_cost.feature.tolist() == [1]
        assert sets.high_cost.feature.tolist() == [0]

    def test_empty_history_makes_everything_high_cost(self):
        candidates = table_from_candidates([_candidate(0, 3), _candidate(1, 5)])
        sets = partition_by_cost(candidates, set())
        assert not sets.zero_cost
        assert not sets.medium_cost
        assert len(sets.high_cost) == 2


class TestADCAwareTrainerBehaviour:
    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            ADCAwareTrainer(max_depth=0)
        with pytest.raises(ValueError):
            ADCAwareTrainer(gini_threshold=-0.1)
        with pytest.raises(ValueError):
            ADCAwareTrainer(resolution_bits=0)
        with pytest.raises(ValueError):
            ADCAwareTrainer(min_samples_leaf=0)

    def test_input_validation(self):
        trainer = ADCAwareTrainer(max_depth=2)
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((3, 2, 1), dtype=int), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            trainer.fit(np.zeros((3, 2), dtype=int), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            trainer.fit(np.full((3, 2), 99, dtype=int), np.zeros(3, dtype=int))

    def test_learns_separable_data(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        tree = ADCAwareTrainer(max_depth=2, seed=0).fit(X_levels, y)
        np.testing.assert_array_equal(tree.predict_levels(X_levels), y)

    def test_max_depth_respected(self, small_split):
        X_train, _, y_train, _ = small_split
        for depth in (1, 2, 3):
            tree = ADCAwareTrainer(max_depth=depth, seed=0).fit(X_train, y_train, 3)
            assert tree.depth <= depth

    def test_reproducible(self, small_split):
        X_train, _, y_train, _ = small_split
        first = ADCAwareTrainer(max_depth=4, gini_threshold=0.01, seed=5).fit(
            X_train, y_train, 3
        )
        second = ADCAwareTrainer(max_depth=4, gini_threshold=0.01, seed=5).fit(
            X_train, y_train, 3
        )
        assert first.comparisons() == second.comparisons()

    def test_tau_zero_matches_cart_accuracy(self, small_split):
        """tau = 0 must not cost accuracy relative to conventional training."""
        X_train, X_test, y_train, y_test = small_split
        cart = CARTTrainer(max_depth=4, seed=0).fit(X_train, y_train, 3)
        aware = ADCAwareTrainer(max_depth=4, gini_threshold=0.0, seed=0).fit(
            X_train, y_train, 3
        )
        cart_accuracy = accuracy_score(y_test, cart.predict_levels(X_test))
        aware_accuracy = accuracy_score(y_test, aware.predict_levels(X_test))
        assert aware_accuracy >= cart_accuracy - 0.03

    def test_reduces_unique_comparisons_vs_cart(self, small_split):
        """The whole point of Algorithm 1: fewer distinct (feature, level) pairs."""
        X_train, _, y_train, _ = small_split
        cart = CARTTrainer(max_depth=5, seed=0).fit(X_train, y_train, 3)
        aware = ADCAwareTrainer(max_depth=5, gini_threshold=0.02, seed=0).fit(
            X_train, y_train, 3
        )
        if cart.n_decision_nodes and aware.n_decision_nodes:
            cart_ratio = len(cart.unique_comparisons()) / cart.n_decision_nodes
            aware_ratio = len(aware.unique_comparisons()) / aware.n_decision_nodes
            assert aware_ratio <= cart_ratio + 1e-9

    def test_tau_sweep_beats_plain_cart_on_adc_comparators(self, small_split):
        """Somewhere on the tau grid, ADC-aware training needs no more distinct
        (feature, level) pairs than conventional CART at the same depth -- this
        is the hardware lever the exploration of Section IV relies on."""
        X_train, _, y_train, _ = small_split
        cart = CARTTrainer(max_depth=5, seed=0).fit(X_train, y_train, 3)
        counts = []
        for tau in (0.0, 0.01, 0.03):
            tree = ADCAwareTrainer(max_depth=5, gini_threshold=tau, seed=0).fit(
                X_train, y_train, 3
            )
            counts.append(len(tree.unique_comparisons()))
        assert min(counts) <= len(cart.unique_comparisons())

    def test_prefers_reusing_existing_pairs(self):
        """With equally good candidate splits, an already-selected pair is reused."""
        # Two features that are exact copies: once feature 0 / level 8 is
        # selected at the root, the children should keep reusing pairs on
        # feature 0 instead of switching to feature 1.
        rng = np.random.default_rng(0)
        base = rng.integers(0, 16, size=400)
        X_levels = np.stack([base, base], axis=1)
        y = (base >= 8).astype(int) + (base >= 12).astype(int)
        tree = ADCAwareTrainer(max_depth=3, gini_threshold=0.0, seed=1).fit(
            X_levels, y, n_classes=3
        )
        assert tree.used_features() == [0] or tree.used_features() == [1]

    def test_prefers_low_levels_for_new_comparators(self):
        """Among equally scoring new pairs, the smaller threshold is selected."""
        # Feature 0: classes separated at level 4; feature 1: identical
        # separation but at level 12.  Both give the same Gini, so Algorithm 1
        # must pick the cheaper low-level comparator.
        values = np.concatenate([np.arange(0, 4), np.arange(4, 8)])
        X_levels = np.stack([values, values + 8], axis=1)
        y = np.array([0] * 4 + [1] * 4)
        tree = ADCAwareTrainer(max_depth=1, gini_threshold=0.0, seed=0).fit(
            X_levels, y, n_classes=2
        )
        assert (tree.feature[0], tree.threshold[0]) == (0, 4)
