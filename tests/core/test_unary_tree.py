"""Unit tests for the parallel unary decision-tree architecture."""

import numpy as np
import pytest

from repro.circuits.verification import check_equivalence
from repro.core.unary_tree import UnaryDecisionTree, digit_variable
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.tree import LEAF


class TestDigitVariable:
    def test_naming(self):
        assert digit_variable(3, 11) == "I3_u11"


class TestUnaryTranslation:
    @pytest.fixture(scope="class")
    def unary(self, small_tree):
        return UnaryDecisionTree(small_tree)

    def test_required_digits_match_tree(self, unary, small_tree):
        assert unary.required_digits == small_tree.required_levels()
        assert unary.used_features == tuple(small_tree.used_features())
        assert unary.n_inputs == len(small_tree.used_features())

    def test_total_unary_digits_counts_unique_pairs(self, unary, small_tree):
        assert unary.n_unary_digits == len(small_tree.unique_comparisons())

    def test_label_logic_covers_all_classes(self, unary, small_tree):
        logic = unary.label_logic
        assert set(logic) == set(range(small_tree.n_classes))
        predicted_classes = set(small_tree.prediction[small_tree.feature == LEAF].tolist())
        for label, sop in logic.items():
            if label in predicted_classes:
                assert not sop.is_false()
            else:
                assert sop.is_false()

    def test_digit_variables_sorted(self, unary):
        variables = unary.digit_variables()
        assert variables == sorted(
            variables, key=lambda v: (int(v[1:].split("_u")[0]), int(v.split("_u")[1]))
        )

    def test_exactly_one_label_fires_per_sample(self, unary, small_tree):
        rng = np.random.default_rng(3)
        X_levels = rng.integers(0, 16, size=(100, small_tree.n_features))
        for row in X_levels:
            assignment = unary._digits_from_levels(row)
            fired = [
                label for label, sop in unary.label_logic.items()
                if sop.evaluate(assignment)
            ]
            assert len(fired) == 1


class TestUnaryPrediction:
    @pytest.fixture(scope="class")
    def unary(self, small_tree):
        return UnaryDecisionTree(small_tree)

    def test_matches_original_tree_on_levels(self, unary, small_tree, small_split):
        _, X_test_levels, _, _ = small_split
        np.testing.assert_array_equal(
            unary.predict_levels(X_test_levels),
            small_tree.predict_levels(X_test_levels),
        )

    def test_matches_original_tree_on_random_levels(self, unary, small_tree):
        rng = np.random.default_rng(7)
        X_levels = rng.integers(0, 16, size=(200, small_tree.n_features))
        np.testing.assert_array_equal(
            unary.predict_levels(X_levels), small_tree.predict_levels(X_levels)
        )

    def test_matches_original_tree_on_raw_features(self, unary, small_tree):
        rng = np.random.default_rng(11)
        X = rng.random((50, small_tree.n_features))
        np.testing.assert_array_equal(unary.predict(X), small_tree.predict(X))

    def test_predict_from_digits_interface(self, unary, small_tree):
        levels = np.full(small_tree.n_features, 8)
        digits = {
            feature: {level: int(levels[feature] >= level) for level in required}
            for feature, required in unary.required_digits.items()
        }
        assert unary.predict_from_digits(digits) == small_tree.predict_one_level(levels)

    def test_inconsistent_assignment_raises(self, small_tree):
        unary = UnaryDecisionTree(small_tree)
        assignment = {variable: False for variable in unary.digit_variables()}
        # Forcing every digit false is still consistent (level 0), so flip the
        # logic: an all-false assignment must fire exactly one label, never zero.
        assert isinstance(unary.predict_from_assignment(assignment), int)


class TestUnaryHardware:
    def test_netlist_equivalent_to_tree(self, small_tree, technology):
        unary = UnaryDecisionTree(small_tree)
        netlist = unary.to_netlist()

        def reference(assignment):
            label = unary.predict_from_assignment(assignment)
            return {
                unary.class_output(c): (c == label) for c in range(unary.n_classes)
            }

        result = check_equivalence(
            netlist, reference, exhaustive_limit=10, n_random_vectors=300, seed=0
        )
        assert result.equivalent, result.mismatches

    def test_digital_report_positive_and_small(self, small_tree, technology):
        unary = UnaryDecisionTree(small_tree)
        report = unary.digital_report(technology)
        assert report.area_mm2 > 0
        assert report.power_uw > 0
        assert report.n_gates > 0

    def test_unary_logic_cheaper_than_baseline_digital(self, small_tree, technology):
        """Removing the comparators must shrink the digital block (Fig. 4)."""
        from repro.baselines.mubarik import BaselineBespokeDesign

        unary = UnaryDecisionTree(small_tree)
        baseline = BaselineBespokeDesign(small_tree, technology)
        assert unary.digital_report(technology).area_mm2 < baseline.digital_report().area_mm2

    def test_single_leaf_tree_translates(self):
        X_levels = np.array([[3, 4], [5, 6]])
        y = np.array([1, 1])
        tree = CARTTrainer(max_depth=2).fit(X_levels, y, n_classes=2)
        unary = UnaryDecisionTree(tree)
        assert unary.n_inputs == 0
        assert unary.label_logic[1].is_true()
        assert unary.predict_levels(X_levels).tolist() == [1, 1]
