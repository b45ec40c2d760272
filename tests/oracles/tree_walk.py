"""Linked-node decision trees, retained as the oracle of the array layout.

Before :class:`~repro.mltrees.tree.DecisionTree` stored its nodes as
parallel arrays, it held the trainer's linked
:class:`~repro.mltrees.tree.TreeNode` root, predicted batches with a
recursive walk that split the row indices at every node, and baseline [7]
approximated a tree by deep-copying that node graph and rewriting each
threshold.  This module keeps those pieces verbatim:

* :class:`LinkedTree` -- traversal, structure queries and both predictors
  of the linked layout, plus :meth:`LinkedTree.to_tree`, which loads the
  linked root the way a pickle written before the array layout loads;
* :func:`linked_approximate_tree` -- the deep-copy ``approximate_tree``.

The linked trees the trainers used to build come from the retained growth
loops in :mod:`oracles.legacy_split_search` (``fit_linked``).  A node is a
leaf when its ``feature`` is ``None``.
"""

from __future__ import annotations

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
            if node.feature is not None:
                stack.append(node.right)
                stack.append(node.left)
        return result

    def decision_nodes(self) -> list[TreeNode]:
        """All internal (splitting) nodes."""
        return [node for node in self.nodes() if node.feature is not None]

    @property
    def depth(self) -> int:
        """Depth of the tree (a lone leaf has depth 0)."""
        def walk(node: TreeNode) -> int:
            if node.feature is None:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def comparisons(self) -> list[tuple[int, int]]:
        """``(feature, threshold_level)`` of every decision node (with repeats)."""
        return [(node.feature, node.threshold_level) for node in self.decision_nodes()]

    def predict_one_level(self, levels) -> int:
        """Predict the class of a single sample given as quantized levels."""
        node = self.root
        while node.feature is not None:
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
            if node.feature is None:
                predictions[indices] = node.prediction
                return
            mask = X_levels[indices, node.feature] >= node.threshold_level
            walk(node.right, indices[mask])
            walk(node.left, indices[~mask])

        walk(self.root, np.arange(len(X_levels)))
        return predictions

    def to_tree(self) -> DecisionTree:
        """The array-layout tree of this linked tree, loaded as a pre-array pickle.

        Unpickling calls ``__setstate__`` on a bare instance with the old
        ``__dict__``; its legacy ``root`` branch is the only flattening of a
        linked tree there is.
        """
        tree = DecisionTree.__new__(DecisionTree)
        tree.__setstate__({
            "root": self.root,
            "n_features": self.n_features,
            "n_classes": self.n_classes,
            "resolution_bits": self.resolution_bits,
        })
        return tree


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

