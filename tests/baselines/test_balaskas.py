"""Unit tests for the approximate precision-scaled baseline [7]."""

import numpy as np
import pytest

from repro.baselines.balaskas import (
    BalaskasApproximateDesign,
    approximate_tree,
    fit_balaskas_design,
)
from repro.mltrees.cart import fit_baseline_tree
from repro.mltrees.evaluation import accuracy_score


class TestApproximateTree:
    def test_full_precision_is_identity(self, small_tree):
        clone = approximate_tree(small_tree, {f: 4 for f in small_tree.used_features()})
        assert clone.comparisons() == small_tree.comparisons()

    def test_original_tree_untouched(self, small_tree):
        before = small_tree.comparisons()
        approximate_tree(small_tree, {f: 1 for f in small_tree.used_features()})
        assert small_tree.comparisons() == before

    def test_thresholds_snap_to_coarse_grid(self, small_tree):
        bits = 2
        clone = approximate_tree(small_tree, {f: bits for f in small_tree.used_features()})
        step = 2 ** (small_tree.resolution_bits - bits)
        for _, level in clone.comparisons():
            assert level % step == 0 or level == step
            assert level >= 1

    def test_one_bit_extreme(self, small_tree):
        clone = approximate_tree(small_tree, {f: 1 for f in small_tree.used_features()})
        for _, level in clone.comparisons():
            assert level == 8

    def test_prediction_changes_only_via_threshold_shift(self, small_tree):
        """Approximated tree equals original whenever no threshold moved."""
        bits = {f: 3 for f in small_tree.used_features()}
        clone = approximate_tree(small_tree, bits)
        rng = np.random.default_rng(0)
        X_levels = rng.integers(0, 16, size=(100, small_tree.n_features))
        moved = any(
            orig != approx
            for orig, approx in zip(small_tree.comparisons(), clone.comparisons())
        )
        if not moved:
            np.testing.assert_array_equal(
                clone.predict_levels(X_levels), small_tree.predict_levels(X_levels)
            )


class TestFitBalaskasDesign:
    @pytest.fixture(scope="class")
    def fitted(self, small_split, technology):
        X_train, X_test, y_train, y_test = small_split
        reference = fit_baseline_tree(X_train, y_train, X_test, y_test, 3, max_depth=5)
        design = fit_balaskas_design(
            X_train, y_train, X_test, y_test,
            n_classes=3,
            reference_accuracy=reference.test_accuracy,
            reference_depth=reference.depth,
            max_accuracy_loss=0.01,
            technology=technology,
            seed=0,
        )
        return reference, design

    def test_returns_design_object(self, fitted):
        _, design = fitted
        assert isinstance(design, BalaskasApproximateDesign)
        assert design.depth >= 1
        assert design.per_feature_bits

    def test_accuracy_within_budget(self, fitted):
        reference, design = fitted
        assert design.accuracy >= reference.test_accuracy - 0.01 - 1e-9

    def test_reported_accuracy_matches_tree(self, fitted, small_split):
        _, design = fitted
        _, X_test, _, y_test = small_split
        measured = accuracy_score(y_test, design.tree.predict_levels(X_test))
        assert measured == pytest.approx(design.accuracy)

    def test_precision_actually_reduced_somewhere(self, fitted):
        _, design = fitted
        assert any(bits < 4 for bits in design.per_feature_bits.values())

    def test_precision_bounds(self, fitted):
        _, design = fitted
        assert all(1 <= bits <= 4 for bits in design.per_feature_bits.values())

    def test_hardware_cheaper_than_exact_baseline_adc(self, fitted, technology):
        """Smaller per-input ADCs must reduce the ADC cost vs the exact baseline."""
        from repro.baselines.mubarik import BaselineBespokeDesign

        reference, design = fitted
        exact = BaselineBespokeDesign(reference.tree, technology).hardware_report()
        approx = design.hardware_report()
        if design.depth <= reference.depth:
            assert approx.adc_power_uw <= exact.adc_power_uw + 1e-6

    def test_fit_synthesizes_each_candidate_once(self, small_split, technology, monkeypatch):
        """The fit costs each feasible candidate once, and the chosen design
        keeps that report instead of synthesizing its netlist again."""
        import repro.baselines.balaskas as balaskas

        built = []
        original = balaskas.build_comparator_tree_netlist

        def counting(tree, *args, **kwargs):
            built.append(tree)
            return original(tree, *args, **kwargs)

        monkeypatch.setattr(balaskas, "build_comparator_tree_netlist", counting)
        X_train, X_test, y_train, y_test = small_split
        reference = fit_baseline_tree(X_train, y_train, X_test, y_test, 3, max_depth=5)
        design = fit_balaskas_design(
            X_train, y_train, X_test, y_test, n_classes=3,
            reference_accuracy=reference.test_accuracy,
            reference_depth=reference.depth, technology=technology, seed=0,
        )
        n_built = len(built)
        assert 1 <= n_built <= 3  # at most one per candidate depth
        assert any(tree is design.tree for tree in built)
        report = design.hardware_report()
        assert len(built) == n_built
        assert design.hardware_report() is report

    def test_fit_scores_each_full_precision_tree_once(
        self, small_split, technology, monkeypatch
    ):
        """The greedy search starts from the exact accuracy: no full-precision
        approximation is scored, and each candidate tree is scored once."""
        import repro.baselines.balaskas as balaskas
        from repro.mltrees.tree import DecisionTree

        approximated, full_precision, predicted = [], [], []
        original_approximate = balaskas.approximate_tree
        original_predict = DecisionTree.predict_levels

        def counting_approximate(tree, bits):
            result = original_approximate(tree, bits)
            approximated.append(result)
            if all(b == tree.resolution_bits for b in bits.values()):
                full_precision.append(result)
            return result

        def counting_predict(tree, X_levels):
            predicted.append(tree)
            return original_predict(tree, X_levels)

        monkeypatch.setattr(balaskas, "approximate_tree", counting_approximate)
        monkeypatch.setattr(DecisionTree, "predict_levels", counting_predict)
        X_train, X_test, y_train, y_test = small_split
        fit_balaskas_design(
            X_train, y_train, X_test, y_test, n_classes=3,
            reference_accuracy=0.9, reference_depth=3,
            technology=technology, seed=0,
        )
        assert not any(
            tree is full for tree in predicted for full in full_precision
        )
        candidates = [
            tree for tree in predicted
            if not any(tree is approx for approx in approximated)
        ]
        assert len(candidates) == 3  # depths 3, 4 and 5, scored once each
        assert len(predicted) > len(candidates)  # the trials

    def test_hardware_report_consistent(self, fitted):
        _, design = fitted
        report = design.hardware_report()
        assert report.n_inputs == len(design.tree.used_features())
        assert report.n_tree_comparators == design.tree.n_decision_nodes
        assert report.total_power_uw > 0
