"""The packed test split against the array gather it replaces for protocol scoring.

:class:`~repro.mltrees.evaluation.PackedSplit` scores a tree as a walk over
Python-int row bitsets.  Its accuracy must equal ``accuracy_score(y,
tree.predict_levels(X))`` with ``==`` for every tree and split: row counts
on both sides of a byte, thresholds above every level in the split, labels
no test row carries, single-leaf trees.  The shared truncation rule is
pinned here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import PackedSplit, accuracy_score, evaluate_tree_accuracy
from repro.mltrees.quantize import truncated_threshold
from repro.mltrees.tree import LEAF, DecisionTree

#: Root on feature 0 >= 8, right child on feature 1 >= 4; leaves predict 0, 1, 2.
MANUAL_NODES = {
    "feature": [0, LEAF, 1, LEAF, LEAF],
    "threshold": [8, 0, 4, 0, 0],
    "left": [1, 1, 3, 3, 4],
    "right": [2, 1, 4, 3, 4],
    "prediction": [0, 0, 1, 1, 2],
    "n_samples": [8, 4, 4, 2, 2],
    "class_counts": [[4, 2, 2], [4, 0, 0], [0, 2, 2], [0, 2, 0], [0, 0, 2]],
    "node_depth": [0, 1, 1, 2, 2],
}


def _gather_accuracy(tree, X_levels, y) -> float:
    return accuracy_score(y, tree.predict_levels(X_levels))


class TestPackedSplit:
    def test_hand_built_tree_counts_each_leaf(self):
        tree = DecisionTree(MANUAL_NODES, n_features=3, n_classes=3)
        X = np.array([[0, 0, 0], [9, 1, 0], [9, 5, 0], [15, 15, 15], [7, 9, 3]])
        y = np.array([0, 1, 2, 1, 0])
        rows = PackedSplit(X, y)
        assert rows.accuracy(tree) == _gather_accuracy(tree, X, y) == 0.8

    def test_threshold_above_every_level_sends_no_row_right(self):
        tree = DecisionTree(MANUAL_NODES, n_features=3, n_classes=3)
        X = np.array([[3, 2, 0], [5, 1, 1], [1, 0, 2]])  # max level 5 < 8
        y = np.array([0, 0, 1])
        rows = PackedSplit(X, y)
        assert rows.rows_at_least(0, 8) == 0
        assert rows.rows_at_least(0, 0) == rows.all_rows
        assert rows.accuracy(tree) == _gather_accuracy(tree, X, y)

    def test_label_absent_from_the_split_is_never_correct(self):
        tree = DecisionTree(MANUAL_NODES, n_features=3, n_classes=3)
        X = np.array([[15, 15, 0], [15, 15, 1]])  # both reach the class-2 leaf
        y = np.array([0, 1])
        assert PackedSplit(X, y).accuracy(tree) == 0.0

    def test_single_leaf_tree(self):
        X = np.zeros((5, 2), dtype=np.int64)
        y = np.array([1, 1, 1, 0, 1])
        tree = CARTTrainer(max_depth=3).fit(X, y, 2)
        assert tree.n_nodes == 1
        assert PackedSplit(X, y).accuracy(tree) == _gather_accuracy(tree, X, y) == 0.8

    def test_evaluate_tree_accuracy_scores_on_the_packed_split(self, small_tree, small_split):
        _, X_test, _, y_test = small_split
        assert evaluate_tree_accuracy(small_tree, PackedSplit(X_test, y_test)) == (
            _gather_accuracy(small_tree, X_test, y_test)
        )

    @pytest.mark.parametrize(
        ("X", "y", "message"),
        [
            (np.zeros((0, 2), dtype=int), np.zeros(0, dtype=int), "empty label vector"),
            (np.zeros((3, 2), dtype=int), np.zeros(2, dtype=int), "one row per label"),
            (np.zeros(3, dtype=int), np.zeros(3, dtype=int), "2-D matrix"),
            (np.array([[0, -1]]), np.array([0]), "non-negative"),
        ],
    )
    def test_rejects_malformed_splits(self, X, y, message):
        with pytest.raises(ValueError, match=message):
            PackedSplit(X, y)

    def test_rejects_a_tree_over_other_features(self):
        tree = DecisionTree(MANUAL_NODES, n_features=3, n_classes=3)
        with pytest.raises(ValueError, match="3 features"):
            PackedSplit(np.zeros((2, 2), dtype=int), np.zeros(2, dtype=int)).accuracy(tree)

    @given(
        n_rows=st.sampled_from([1, 2, 7, 8, 9, 63, 64, 65, 200]),
        n_features=st.integers(1, 4),
        n_classes=st.integers(2, 4),
        depth=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_the_gather_on_random_splits(
        self, n_rows, n_features, n_classes, depth, seed
    ):
        rng = np.random.default_rng(seed)
        X_train = rng.integers(0, 16, size=(80, n_features))
        y_train = rng.integers(0, n_classes, size=80)
        tree = CARTTrainer(max_depth=depth, seed=seed).fit(X_train, y_train, n_classes)
        X = rng.integers(0, int(rng.integers(1, 17)), size=(n_rows, n_features))
        y = rng.integers(0, n_classes, size=n_rows)
        assert PackedSplit(X, y).accuracy(tree) == _gather_accuracy(tree, X, y)


class TestTruncatedThreshold:
    @pytest.mark.parametrize(
        ("level", "bits", "expected"),
        [(13, 4, 13), (13, 3, 12), (13, 2, 12), (13, 1, 8), (3, 2, 4), (1, 1, 8),
         (15, 9, 15), (5, 0, 8)],
    )
    def test_keeps_the_most_significant_bits_of_a_4_bit_level(self, level, bits, expected):
        assert truncated_threshold(level, bits, 4) == expected
