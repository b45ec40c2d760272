"""Unit tests for the decision-tree data structures."""

import pickle

import numpy as np
import pytest

from repro.mltrees.tree import LEAF, DecisionTree, TreeNode


def _manual_tree() -> DecisionTree:
    """Hand-built tree: root on feature 0 >= 8, right child on feature 1 >= 4."""
    leaf_left = TreeNode(node_id=1, prediction=0, n_samples=4, class_counts=(4, 0, 0), depth=1)
    leaf_rl = TreeNode(node_id=3, prediction=1, n_samples=2, class_counts=(0, 2, 0), depth=2)
    leaf_rr = TreeNode(node_id=4, prediction=2, n_samples=2, class_counts=(0, 0, 2), depth=2)
    right = TreeNode(
        node_id=2, prediction=1, n_samples=4, class_counts=(0, 2, 2),
        feature=1, threshold_level=4, left=leaf_rl, right=leaf_rr, depth=1,
    )
    root = TreeNode(
        node_id=0, prediction=0, n_samples=8, class_counts=(4, 2, 2),
        feature=0, threshold_level=8, left=leaf_left, right=right, depth=0,
    )
    return DecisionTree(root=root, n_features=3, n_classes=3, resolution_bits=4)


class TestTreeNode:
    def test_leaf_detection(self):
        leaf = TreeNode(node_id=0, prediction=1, n_samples=3, class_counts=(0, 3))
        assert leaf.is_leaf
        assert not TreeNode(node_id=0, prediction=0, n_samples=1, class_counts=(1, 0),
                            feature=0, threshold_level=8).is_leaf

    def test_threshold_value(self):
        node = TreeNode(node_id=0, prediction=0, n_samples=1, class_counts=(1, 0),
                        feature=0, threshold_level=8)
        assert node.threshold_value(4) == pytest.approx(0.5)

    def test_threshold_value_on_leaf_raises(self):
        leaf = TreeNode(node_id=0, prediction=0, n_samples=1, class_counts=(1,))
        with pytest.raises(ValueError):
            leaf.threshold_value(4)


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

    def test_validation_of_constructor(self):
        root = TreeNode(node_id=0, prediction=0, n_samples=1, class_counts=(1, 0))
        with pytest.raises(ValueError):
            DecisionTree(root, n_features=0, n_classes=2)
        with pytest.raises(ValueError):
            DecisionTree(root, n_features=2, n_classes=1)
        with pytest.raises(ValueError):
            DecisionTree(root, n_features=2, n_classes=2, resolution_bits=0)


class TestArrayLayout:
    def test_nodes_are_stored_by_node_id(self):
        tree = _manual_tree()
        assert tree.feature.tolist() == [0, LEAF, 1, LEAF, LEAF]
        assert tree.threshold.tolist() == [8, 0, 4, 0, 0]
        # leaves are their own children
        assert tree.left.tolist() == [1, 1, 3, 3, 4]
        assert tree.right.tolist() == [2, 1, 4, 3, 4]
        assert tree.prediction.tolist() == [0, 0, 1, 1, 2]
        assert tree.n_samples.tolist() == [8, 4, 4, 2, 2]
        assert tree.class_counts.tolist() == [
            [4, 2, 2], [4, 0, 0], [0, 2, 2], [0, 2, 0], [0, 0, 2],
        ]
        assert tree.node_depth.tolist() == [0, 1, 1, 2, 2]

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
        left = TreeNode(node_id=ids[1], prediction=0, n_samples=1, class_counts=(1, 0))
        right = TreeNode(node_id=ids[2], prediction=1, n_samples=1, class_counts=(0, 1))
        root = TreeNode(node_id=ids[0], prediction=0, n_samples=2, class_counts=(1, 1),
                        feature=0, threshold_level=8, left=left, right=right)
        with pytest.raises(ValueError, match="node id"):
            DecisionTree(root, n_features=1, n_classes=2)


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

    def test_trained_tree_consistency(self, small_tree, small_split):
        """Raw-feature prediction equals quantized-level prediction."""
        _, X_test_levels, _, _ = small_split
        raw = X_test_levels / 16.0
        np.testing.assert_array_equal(
            small_tree.predict(raw), small_tree.predict_levels(X_test_levels)
        )
