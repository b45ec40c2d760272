"""Decision-tree data structures and prediction.

Trees operate on *quantized levels*: every feature value is an integer in
``[0, 2**resolution_bits - 1]`` (the output level of the flash ADC channel
for that feature) and every split threshold is an integer level ``k`` in
``[1, 2**resolution_bits - 1]``.  A node routes a sample to its **right**
child when ``x[feature] >= k`` -- exactly the comparison that a single unary
digit ``I[k]`` implements in the parallel unary architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adc.thermometer import quantize_array_to_levels


@dataclass
class TreeNode:
    """One node of a decision tree.

    Decision nodes carry ``feature`` and ``threshold_level``; leaves carry
    only the majority-class ``prediction``.  Every node stores the class
    histogram of the training samples that reached it, which the trainers use
    for majority votes and which makes the tree self-describing.
    """

    node_id: int
    prediction: int
    n_samples: int
    class_counts: tuple[int, ...]
    feature: int | None = None
    threshold_level: int | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        """True when the node has no split (no children)."""
        return self.feature is None

    def threshold_value(self, resolution_bits: int) -> float:
        """Threshold expressed on the normalized ``[0, 1]`` scale."""
        if self.threshold_level is None:
            raise ValueError(f"node {self.node_id} is a leaf and has no threshold")
        return self.threshold_level / (2 ** resolution_bits)


class DecisionTree:
    """A trained, quantized decision-tree classifier."""

    def __init__(
        self,
        root: TreeNode,
        n_features: int,
        n_classes: int,
        resolution_bits: int = 4,
    ):
        if n_features < 1:
            raise ValueError("a decision tree needs at least one input feature")
        if n_classes < 2:
            raise ValueError("a classifier needs at least two classes")
        if resolution_bits < 1:
            raise ValueError("resolution must be at least 1 bit")
        self.root = root
        self.n_features = n_features
        self.n_classes = n_classes
        self.resolution_bits = resolution_bits

    def __eq__(self, other: object) -> bool:
        """Structural equality: same shape, splits, predictions and metadata.

        Lets higher-level records embedding trees (``DesignPoint``,
        ``CoDesignResult``) compare by value, e.g. when asserting that
        serial and parallel experiment runs produce identical results.
        """
        if not isinstance(other, DecisionTree):
            return NotImplemented
        return (
            self.n_features == other.n_features
            and self.n_classes == other.n_classes
            and self.resolution_bits == other.resolution_bits
            and self.root == other.root
        )

    __hash__ = None  # structural equality makes trees unhashable (like TreeNode)

    # ------------------------------------------------------------------ #
    # traversal helpers
    # ------------------------------------------------------------------ #
    def nodes(self) -> list[TreeNode]:
        """All nodes in pre-order."""
        result: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            result.append(node)
            if not node.is_leaf:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)  # type: ignore[arg-type]
        return result

    def decision_nodes(self) -> list[TreeNode]:
        """All internal (splitting) nodes."""
        return [node for node in self.nodes() if not node.is_leaf]

    def leaves(self) -> list[TreeNode]:
        """All leaf nodes."""
        return [node for node in self.nodes() if node.is_leaf]

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return len(self.nodes())

    @property
    def n_decision_nodes(self) -> int:
        """Number of comparison nodes (the ``#Comp.`` column of Table I)."""
        return len(self.decision_nodes())

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return len(self.leaves())

    @property
    def depth(self) -> int:
        """Depth of the tree (a lone leaf has depth 0)."""
        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))  # type: ignore[arg-type]

        return walk(self.root)

    # ------------------------------------------------------------------ #
    # model structure queries
    # ------------------------------------------------------------------ #
    def comparisons(self) -> list[tuple[int, int]]:
        """``(feature, threshold_level)`` of every decision node (with repeats)."""
        return [
            (node.feature, node.threshold_level)  # type: ignore[misc]
            for node in self.decision_nodes()
        ]

    def unique_comparisons(self) -> list[tuple[int, int]]:
        """Sorted unique ``(feature, threshold_level)`` pairs."""
        return sorted(set(self.comparisons()))

    def used_features(self) -> list[int]:
        """Sorted indices of features referenced by at least one split."""
        return sorted({feature for feature, _ in self.comparisons()})

    def required_levels(self) -> dict[int, tuple[int, ...]]:
        """Per used feature, the sorted unary-digit levels the tree consumes.

        This is precisely the set of comparators each bespoke ADC must retain
        (Section III-B).
        """
        levels: dict[int, set[int]] = {}
        for feature, level in self.comparisons():
            levels.setdefault(feature, set()).add(level)
        return {feature: tuple(sorted(values)) for feature, values in sorted(levels.items())}

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def predict_one_level(self, levels) -> int:
        """Predict the class of a single sample given as quantized levels."""
        node = self.root
        while not node.is_leaf:
            if levels[node.feature] >= node.threshold_level:  # type: ignore[index]
                node = node.right  # type: ignore[assignment]
            else:
                node = node.left  # type: ignore[assignment]
        return node.prediction

    def predict_levels(self, X_levels: np.ndarray) -> np.ndarray:
        """Predict classes for a matrix of quantized samples (vectorized)."""
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
            walk(node.right, indices[mask])  # type: ignore[arg-type]
            walk(node.left, indices[~mask])  # type: ignore[arg-type]

        walk(self.root, np.arange(len(X_levels)))
        return predictions

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict classes for raw, normalized samples in ``[0, 1]``."""
        levels = quantize_array_to_levels(np.asarray(X, dtype=float), self.resolution_bits)
        return self.predict_levels(levels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecisionTree(depth={self.depth}, decision_nodes={self.n_decision_nodes}, "
            f"leaves={self.n_leaves}, features={self.n_features}, "
            f"classes={self.n_classes}, bits={self.resolution_bits})"
        )
