"""Unit tests for the decision-tree data structures."""

import pickle

import numpy as np
import pytest

from oracles.tree_walk import LinkedTree, TreeNode
from repro.mltrees.tree import LEAF, DecisionTree

#: Node arrays of the hand-built tree: root on feature 0 >= 8, right child
#: (node 2) on feature 1 >= 4.
MANUAL_NODES = {
    "feature": [0, LEAF, 1, LEAF, LEAF],
    "threshold": [8, 0, 4, 0, 0],
    # leaves are their own children
    "left": [1, 1, 3, 3, 4],
    "right": [2, 1, 4, 3, 4],
    "prediction": [0, 0, 1, 1, 2],
    "n_samples": [8, 4, 4, 2, 2],
    "class_counts": [[4, 2, 2], [4, 0, 0], [0, 2, 2], [0, 2, 0], [0, 0, 2]],
    "node_depth": [0, 1, 1, 2, 2],
}


def _manual_tree() -> DecisionTree:
    return DecisionTree(MANUAL_NODES, n_features=3, n_classes=3, resolution_bits=4)


def _lone_leaf() -> dict:
    return {
        "feature": [LEAF], "threshold": [0], "left": [0], "right": [0],
        "prediction": [0], "n_samples": [1], "class_counts": [[1, 0]], "node_depth": [0],
    }


class TestDecisionTreeStructure:
    def test_counts(self):
        tree = _manual_tree()
        assert tree.n_nodes == 5
        assert tree.n_decision_nodes == 2
        assert tree.n_leaves == 3
        assert tree.depth == 2

    def test_comparisons_and_uniqueness(self):
        tree = _manual_tree()
        assert sorted(tree.comparisons()) == [(0, 8), (1, 4)]
        assert tree.unique_comparisons() == [(0, 8), (1, 4)]
        assert tree.used_features() == [0, 1]

    def test_required_levels(self):
        tree = _manual_tree()
        assert tree.required_levels() == {0: (8,), 1: (4,)}

    def test_trained_tree_comparison_views_agree(self, small_tree):
        comparisons = small_tree.comparisons()
        assert len(comparisons) == small_tree.n_decision_nodes
        assert small_tree.unique_comparisons() == sorted(set(comparisons))
        assert list(small_tree.required_levels()) == small_tree.used_features()

    def test_required_levels_cover_all_comparisons(self, small_tree):
        required = small_tree.required_levels()
        for feature, level in small_tree.unique_comparisons():
            assert level in required[feature]

    def test_validation_of_constructor(self):
        with pytest.raises(ValueError):
            DecisionTree(_lone_leaf(), n_features=0, n_classes=2)
        with pytest.raises(ValueError):
            DecisionTree(_lone_leaf(), n_features=2, n_classes=1)
        with pytest.raises(ValueError):
            DecisionTree(_lone_leaf(), n_features=2, n_classes=2, resolution_bits=0)


class TestArrayLayout:
    def test_nodes_are_stored_by_node_id(self):
        tree = _manual_tree()
        for name, values in MANUAL_NODES.items():
            array = getattr(tree, name)
            assert array.dtype == np.int64 and array.tolist() == values, name

    def test_linked_pickle_state_loads_by_node_id(self):
        """The linked oracle flattens to the array layout by node id.

        Its nodes' own ``depth`` fields are not read: depths come from the links.
        """
        leaf_left = TreeNode(node_id=1, prediction=0, n_samples=4, class_counts=(4, 0, 0))
        leaf_rl = TreeNode(node_id=3, prediction=1, n_samples=2, class_counts=(0, 2, 0))
        leaf_rr = TreeNode(node_id=4, prediction=2, n_samples=2, class_counts=(0, 0, 2))
        right = TreeNode(
            node_id=2, prediction=1, n_samples=4, class_counts=(0, 2, 2),
            feature=1, threshold_level=4, left=leaf_rl, right=leaf_rr,
        )
        root = TreeNode(
            node_id=0, prediction=0, n_samples=8, class_counts=(4, 2, 2),
            feature=0, threshold_level=8, left=leaf_left, right=right,
        )
        loaded = LinkedTree(root, n_features=3, n_classes=3).to_tree()
        assert loaded == _manual_tree()
        assert pickle.dumps(loaded) == pickle.dumps(_manual_tree())

    def test_preorder_and_paths(self):
        tree = _manual_tree()
        assert tree.preorder() == [0, 1, 2, 3, 4]
        assert tree.paths() == [
            (1, ((0, False),)),
            (3, ((0, True), (2, False))),
            (4, ((0, True), (2, True))),
        ]

    def test_arrays_are_read_only(self):
        tree = _manual_tree()
        with pytest.raises(ValueError):
            tree.threshold[0] = 3

    def test_pickle_round_trip(self):
        tree = _manual_tree()
        clone = pickle.loads(pickle.dumps(tree))
        assert clone == tree
        assert not clone.feature.flags.writeable

    def test_with_thresholds_replaces_only_thresholds(self):
        tree = _manual_tree()
        moved = tree.with_thresholds([12, 0, 4, 0, 0])
        assert moved.comparisons() == [(0, 12), (1, 4)]
        assert tree.comparisons() == [(0, 8), (1, 4)]
        assert moved.feature is tree.feature
        assert moved != tree
        with pytest.raises(ValueError):
            tree.with_thresholds([8, 4])

    @pytest.mark.parametrize("ids", [(1, 2, 3), (0, 1, 1), (0, 1, 3)])
    def test_node_ids_must_number_the_nodes(self, ids):
        """A linked tree whose ids are not 0..n-1 does not flatten."""
        left = TreeNode(node_id=ids[1], prediction=0, n_samples=1, class_counts=(1, 0))
        right = TreeNode(node_id=ids[2], prediction=1, n_samples=1, class_counts=(0, 1))
        root = TreeNode(node_id=ids[0], prediction=0, n_samples=2, class_counts=(1, 1),
                        feature=0, threshold_level=8, left=left, right=right)
        with pytest.raises(ValueError, match="node id"):
            LinkedTree(root, n_features=1, n_classes=2).to_tree()


class TestDecisionTreePrediction:
    def test_single_sample_routing(self):
        tree = _manual_tree()
        assert tree.predict_one_level([3, 10, 0]) == 0      # left at root
        assert tree.predict_one_level([9, 2, 0]) == 1        # right, then left
        assert tree.predict_one_level([9, 6, 0]) == 2        # right, then right
        assert tree.predict_one_level([8, 4, 0]) == 2        # boundary goes right

    def test_vectorized_matches_scalar(self):
        tree = _manual_tree()
        rng = np.random.default_rng(0)
        X_levels = rng.integers(0, 16, size=(64, 3))
        vectorized = tree.predict_levels(X_levels)
        scalar = np.array([tree.predict_one_level(row) for row in X_levels])
        np.testing.assert_array_equal(vectorized, scalar)

    def test_predict_on_raw_features_quantizes_first(self):
        tree = _manual_tree()
        raw = np.array([[0.49, 0.9, 0.0], [0.51, 0.1, 0.0]])
        np.testing.assert_array_equal(tree.predict(raw), [0, 1])

    def test_predict_levels_requires_matrix(self):
        tree = _manual_tree()
        with pytest.raises(ValueError):
            tree.predict_levels(np.array([1, 2, 3]))

    @pytest.mark.parametrize("width", [2, 4])
    def test_predict_levels_requires_one_column_per_feature(self, width):
        """Too few columns used to fail with a bare IndexError, too many passed."""
        tree = _manual_tree()
        with pytest.raises(ValueError, match=rf"with 3 columns, got shape \(5, {width}\)"):
            tree.predict_levels(np.zeros((5, width), dtype=np.int64))
        with pytest.raises(ValueError, match="3 columns"):
            tree.predict_one_level([9] * width)

    def test_predict_rejects_nan_samples(self):
        tree = _manual_tree()
        with pytest.raises(ValueError, match="NaN"):
            tree.predict(np.array([[0.9, np.nan, 0.0]]))

    def test_trained_tree_consistency(self, small_tree, small_split):
        """Raw-feature prediction equals quantized-level prediction."""
        _, X_test_levels, _, _ = small_split
        raw = X_test_levels / 16.0
        np.testing.assert_array_equal(
            small_tree.predict(raw), small_tree.predict_levels(X_test_levels)
        )
