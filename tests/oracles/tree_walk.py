"""Linked-node decision trees, retained as the oracle of the array layout.

Before :class:`~repro.mltrees.tree.DecisionTree` stored its nodes as
parallel arrays, it held the trainer's linked
:class:`~repro.mltrees.tree.TreeNode` root, predicted batches with a
recursive walk that split the row indices at every node, and baseline [7]
approximated a tree by deep-copying that node graph and rewriting each
threshold.  This module keeps those three pieces verbatim:

* :class:`LinkedTree` -- traversal, structure queries and both predictors
  of the linked layout;
* :func:`linked_approximate_tree` -- the deep-copy ``approximate_tree``;
* :func:`capture_roots` -- a context manager recording the linked root
  each trainer hands to the ``DecisionTree`` constructor, so the tests can
  check the flattening against what the trainer actually built.
"""

from __future__ import annotations

import contextlib
import copy

import numpy as np

from repro.mltrees.tree import DecisionTree, TreeNode


class LinkedTree:
    """The pre-array ``DecisionTree``: a linked root plus shape metadata."""

    def __init__(self, root: TreeNode, n_features: int, n_classes: int,
                 resolution_bits: int = 4):
        self.root = root
        self.n_features = n_features
        self.n_classes = n_classes
        self.resolution_bits = resolution_bits

    def nodes(self) -> list[TreeNode]:
        """All nodes in pre-order."""
        result: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            result.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        return result

    def decision_nodes(self) -> list[TreeNode]:
        """All internal (splitting) nodes."""
        return [node for node in self.nodes() if not node.is_leaf]

    @property
    def depth(self) -> int:
        """Depth of the tree (a lone leaf has depth 0)."""
        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def comparisons(self) -> list[tuple[int, int]]:
        """``(feature, threshold_level)`` of every decision node (with repeats)."""
        return [(node.feature, node.threshold_level) for node in self.decision_nodes()]

    def predict_one_level(self, levels) -> int:
        """Predict the class of a single sample given as quantized levels."""
        node = self.root
        while not node.is_leaf:
            if levels[node.feature] >= node.threshold_level:
                node = node.right
            else:
                node = node.left
        return node.prediction

    def predict_levels(self, X_levels: np.ndarray) -> np.ndarray:
        """Predict classes for a matrix of quantized samples (recursive walk)."""
        X_levels = np.asarray(X_levels)
        if X_levels.ndim != 2:
            raise ValueError("expected a 2-D matrix of quantized samples")
        predictions = np.empty(len(X_levels), dtype=np.int64)

        def walk(node: TreeNode, indices: np.ndarray) -> None:
            if indices.size == 0:
                return
            if node.is_leaf:
                predictions[indices] = node.prediction
                return
            mask = X_levels[indices, node.feature] >= node.threshold_level
            walk(node.right, indices[mask])
            walk(node.left, indices[~mask])

        walk(self.root, np.arange(len(X_levels)))
        return predictions

    def to_tree(self) -> DecisionTree:
        """The array-layout tree of this linked tree."""
        return DecisionTree(self.root, self.n_features, self.n_classes, self.resolution_bits)


def linked_approximate_tree(tree: LinkedTree, per_feature_bits: dict[int, int]) -> LinkedTree:
    """Snap every threshold of ``tree`` onto the coarser grid of its feature."""
    resolution = tree.resolution_bits
    clone = copy.deepcopy(tree)
    for node in clone.decision_nodes():
        feature = node.feature
        assert feature is not None and node.threshold_level is not None
        bits = int(per_feature_bits.get(feature, resolution))
        bits = min(max(bits, 1), resolution)
        shift = resolution - bits
        if shift == 0:
            continue
        node.threshold_level = max(node.threshold_level >> shift, 1) << shift
    return clone


@contextlib.contextmanager
def capture_roots():
    """Record every ``DecisionTree`` built inside the block as a :class:`LinkedTree`.

    Yields the list the linked trees are appended to, in construction order.
    """
    captured: list[LinkedTree] = []
    original = DecisionTree.__init__

    def spy(self, root, n_features, n_classes, resolution_bits=4):
        captured.append(LinkedTree(copy.deepcopy(root), n_features, n_classes,
                                   resolution_bits))
        original(self, root, n_features, n_classes, resolution_bits)

    DecisionTree.__init__ = spy
    try:
        yield captured
    finally:
        DecisionTree.__init__ = original
