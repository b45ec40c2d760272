"""Unit tests for the parallel unary decision-tree architecture."""

import pickle
import sys
import threading

import numpy as np
import pytest

from oracles.unary_scalar import digits_from_levels, predict_from_assignment, predict_from_digits
from repro.circuits.verification import check_equivalence
from repro.core import unary_tree
from repro.core.design import DesignSpec, proposed_hardware_report
from repro.core.unary_tree import UnaryDecisionTree, digit_variable, translate
from repro.core.variation import simulate_offset_variation
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
            assignment = digits_from_levels(unary, row)
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
        assert predict_from_digits(unary, digits) == small_tree.predict_one_level(levels)

    def test_inconsistent_assignment_raises(self, small_tree):
        unary = UnaryDecisionTree(small_tree)
        assignment = {variable: False for variable in unary.digit_variables()}
        # Forcing every digit false is still consistent (level 0), so flip the
        # logic: an all-false assignment must fire exactly one label, never zero.
        assert isinstance(predict_from_assignment(unary, assignment), int)


class TestUnaryHardware:
    def test_netlist_equivalent_to_tree(self, small_tree, technology):
        unary = UnaryDecisionTree(small_tree)
        netlist = unary.to_netlist()

        def reference(assignment):
            label = predict_from_assignment(unary, assignment)
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


class TestTranslationMemo:
    """:func:`translate` shares one translation among equal trees."""

    @pytest.fixture
    def empty_memo(self):
        unary_tree._translations.clear()
        yield unary_tree._translations
        unary_tree._translations.clear()

    def test_equal_unpickled_copies_minimize_each_label_once(
        self, small_tree, small_split, technology, count_minimizations
    ):
        # Every Monte-Carlo call and hardware report of a store-backed run
        # receives a freshly unpickled copy of the grid tree.
        _, X_test_levels, _, y_test = small_split

        def copy():
            return pickle.loads(pickle.dumps(small_tree))

        for sigma in (0.01, 0.02, 0.04):
            simulate_offset_variation(copy(), X_test_levels / 16.0, y_test, sigma, n_trials=5)
        proposed_hardware_report(copy(), technology)
        assert len(count_minimizations) == small_tree.n_classes

    def test_the_key_is_the_tree_content(self, small_tree, empty_memo):
        unary = translate(small_tree)
        assert translate(pickle.loads(pickle.dumps(small_tree))) is unary
        assert translate(unary) is unary
        assert len(empty_memo) == 1

    def test_a_rethresholded_copy_misses(self, small_tree, empty_memo):
        decision = np.flatnonzero(small_tree.feature != LEAF)
        threshold = small_tree.threshold.copy()
        threshold[decision[0]] = threshold[decision[0]] % 15 + 1  # another level in 1..15
        other = small_tree.with_thresholds(threshold)
        assert other.digest() != small_tree.digest()
        unary, other_unary = translate(small_tree), translate(other)
        assert other_unary is not unary and other_unary.tree is other
        assert other_unary.required_digits == other.required_levels()
        levels = np.random.default_rng(0).integers(0, 16, size=(300, small_tree.n_features))
        np.testing.assert_array_equal(
            other_unary.predict_levels(levels), other.predict_levels(levels)
        )

    def test_the_memo_never_exceeds_its_bound(self, small_tree, empty_memo):
        decision = np.flatnonzero(small_tree.feature != LEAF)
        rng = np.random.default_rng(1)
        trees = []
        for _ in range(unary_tree.TRANSLATIONS_MAX_ENTRIES + 6):
            threshold = small_tree.threshold.copy()
            threshold[decision] = rng.integers(1, 16, size=decision.size)
            trees.append(small_tree.with_thresholds(threshold))
            translate(trees[-1])
            assert len(empty_memo) <= unary_tree.TRANSLATIONS_MAX_ENTRIES
        assert len({tree.digest() for tree in trees}) == len(trees)
        assert len(empty_memo) == unary_tree.TRANSLATIONS_MAX_ENTRIES
        # Least recently used goes first: a hit refreshes an entry.
        survivor = trees[-unary_tree.TRANSLATIONS_MAX_ENTRIES]
        translate(survivor)
        translate(trees[0])
        assert survivor.digest() in empty_memo
        assert trees[-unary_tree.TRANSLATIONS_MAX_ENTRIES + 1].digest() not in empty_memo

    def test_threads_share_one_translation_per_tree(self, small_tree, empty_memo):
        decision = np.flatnonzero(small_tree.feature != LEAF)
        blobs = []
        for level in range(1, 7):
            threshold = small_tree.threshold.copy()
            threshold[decision[0]] = level
            blobs.append(pickle.dumps(small_tree.with_thresholds(threshold)))
        seen: list[tuple[int, int]] = []  # (tree index, id of its translation)

        def worker(order):
            for index in order:
                seen.append((index, id(translate(pickle.loads(blobs[index])))))

        rng = np.random.default_rng(2)
        threads = [
            threading.Thread(target=worker, args=(rng.permutation(len(blobs) * 3) % len(blobs),))
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 * 3 * len(blobs)
        assert len({translation for _, translation in seen}) == len(blobs)
        assert len(set(seen)) == len(blobs)
        assert len(empty_memo) == len(blobs)

    def test_translating_leaves_pickles_unchanged(self):
        # Design points go into store entries and trees into registry
        # artifacts; the digest and translation never ride along.
        point = pickle.loads(pickle.dumps(DesignSpec("seeds", 0, 3, 0.01).evaluate()))
        before = pickle.dumps(point)
        tree_before = pickle.dumps(point.tree)
        translate(point.tree)
        point.tree.digest()
        assert pickle.dumps(point) == before
        assert pickle.dumps(point.tree) == tree_before
