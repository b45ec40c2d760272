"""Decision-tree data structures and prediction.

Trees operate on *quantized levels*: every feature value is an integer in
``[0, 2**resolution_bits - 1]`` (the output level of the flash ADC channel
for that feature) and every split threshold is an integer level ``k`` in
``[1, 2**resolution_bits - 1]``.  A node routes a sample to its **right**
child when ``x[feature] >= k`` -- exactly the comparison that a single unary
digit ``I[k]`` implements in the parallel unary architecture.

Array layout
------------
A :class:`DecisionTree` stores its nodes as parallel, read-only ``int64``
arrays indexed by node id, in the manner of scikit-learn's ``tree_``:

================  ================================================
``feature``       split input; ``-1`` (:data:`LEAF`) at leaves
``threshold``     split level ``k``; ``0`` at leaves
``left``          child taken when ``x[feature] < k``
``right``         child taken when ``x[feature] >= k``
``prediction``    majority class of the node's training samples
``n_samples``     training samples that reached the node
``class_counts``  ``(n_nodes, n_classes)`` class histograms
``node_depth``    distance from the root (the root is node 0, depth 0)
================  ================================================

A leaf's ``left`` and ``right`` are its own id, so the routing step
``node = where(x[feature[node]] >= threshold[node], right, left)`` is a
no-op once a sample has reached its leaf.  :meth:`DecisionTree.predict_levels`
therefore runs that step exactly ``depth`` times over the whole batch, with
no recursion and no per-node Python work.  At one row it costs about what
the recursive walk it replaced did (tens of microseconds on a depth-8
tree); on test-set-sized batches it is about 4x faster, and on batches of
hundreds of thousands of rows somewhat slower, since every row takes every
step (measurements in ``docs/KERNELS.md``).

One grower, ``CARTTrainer._grow``, builds every trainer's tree as linked
:class:`TreeNode` records and hands the root to the constructor, which
flattens it once.  The node ids are the grower's numbering: a node takes
its id when it leaves the frontier, so ids are pre-order for CART (LIFO
frontier) and breadth-first for the ADC-aware trainer (FIFO frontier).  A
breadth-first tree's nodes down to any depth are a prefix of its arrays,
which is what lets :meth:`DecisionTree.truncated` cut it by slicing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adc.thermometer import quantize_array_to_levels

#: ``feature`` value of a leaf.
LEAF = -1

#: The per-node arrays of a :class:`DecisionTree`, in layout-table order.
NODE_ARRAYS = (
    "feature", "threshold", "left", "right",
    "prediction", "n_samples", "class_counts", "node_depth",
)

#: Columns of a node table: the 1-D arrays, then one column per class count.
_TABLE_COLUMNS = tuple(name for name in NODE_ARRAYS if name != "class_counts")


@dataclass
class TreeNode:
    """One node of a tree under construction.

    The trainers grow trees as linked nodes and pass the root to
    :class:`DecisionTree`, which flattens them into its arrays.  Decision
    nodes carry ``feature`` and ``threshold_level``; leaves carry only the
    majority-class ``prediction``.  Every node stores the class histogram of
    the training samples that reached it.
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


def _flatten(root: TreeNode) -> dict[str, np.ndarray]:
    """The :data:`NODE_ARRAYS` of the linked tree under ``root``, by node id."""
    rows: dict[int, tuple] = {}
    stack, n_nodes = [(root, 0)], 0
    while stack:
        node, depth = stack.pop()
        n_nodes += 1
        if node.is_leaf:
            split = (LEAF, 0, node.node_id, node.node_id)
        else:
            split = (node.feature, node.threshold_level, node.left.node_id, node.right.node_id)
            stack += [(node.right, depth + 1), (node.left, depth + 1)]
        rows[node.node_id] = (*split, node.prediction, node.n_samples, depth, *node.class_counts)
    if root.node_id != 0 or sorted(rows) != list(range(n_nodes)):
        raise ValueError("node ids must number the nodes 0..n-1 with the root at 0")
    return _from_table(np.array([rows[node_id] for node_id in range(n_nodes)], dtype=np.int64))


def _from_table(table: np.ndarray) -> dict[str, np.ndarray]:
    """Split an ``(n_nodes, 7 + n_classes)`` node table into the node arrays."""
    columns = np.array(table.T, dtype=np.int64)
    arrays = dict(zip(_TABLE_COLUMNS, columns))
    arrays["class_counts"] = np.ascontiguousarray(columns[len(_TABLE_COLUMNS):].T)
    return arrays


class DecisionTree:
    """A trained, quantized decision-tree classifier.

    Its nodes live in the read-only :data:`NODE_ARRAYS` attributes laid out
    in the module docstring.
    """

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
        self.n_features = n_features
        self.n_classes = n_classes
        self.resolution_bits = resolution_bits
        self._adopt(_flatten(root))

    def _adopt(self, arrays: dict[str, np.ndarray]) -> None:
        """Install node arrays read-only, so trees may share them safely."""
        for name, array in arrays.items():
            array.flags.writeable = False
            setattr(self, name, array)

    def __getstate__(self) -> dict:
        # One node table of the narrowest integer type that holds it keeps
        # store entries and registry artifacts small.
        state = {k: v for k, v in self.__dict__.items() if k not in NODE_ARRAYS}
        table = np.column_stack(
            [*(getattr(self, name) for name in _TABLE_COLUMNS), self.class_counts]
        )
        state["nodes"] = table.astype(np.min_scalar_type(-1 - int(table.max())))
        return state

    def __setstate__(self, state: dict) -> None:
        # Pickles written before the array layout hold the linked root.
        root = state.pop("root", None)
        table = state.pop("nodes", None)
        self.__dict__.update(state)
        self._adopt(_flatten(root) if root is not None else _from_table(table))

    def with_thresholds(self, threshold: np.ndarray) -> DecisionTree:
        """This tree with its ``threshold`` array replaced (other arrays shared)."""
        threshold = np.array(threshold, dtype=np.int64)
        if threshold.shape != self.threshold.shape:
            raise ValueError(
                f"expected {self.threshold.shape[0]} thresholds, got shape {threshold.shape}"
            )
        clone = object.__new__(DecisionTree)
        clone.__dict__.update(self.__dict__)
        clone._adopt({"threshold": threshold})
        return clone

    def truncated(self, depth: int) -> DecisionTree:
        """This tree cut at ``depth``: its nodes down to ``depth``, the deepest made leaves.

        Only a tree whose nodes at depth ``<= depth`` are the ids
        ``0..n-1`` -- a breadth-first tree -- can be cut by slicing its
        arrays; anything else (a pre-order CART tree) raises ``ValueError``.
        """
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if depth >= self.depth:
            return self
        n_nodes = int(np.count_nonzero(self.node_depth <= depth))
        if self.node_depth[:n_nodes].max() > depth:
            raise ValueError(
                f"the nodes at depth <= {depth} are not ids 0..{n_nodes - 1}: "
                "only a breadth-first tree can be truncated"
            )
        arrays = {name: getattr(self, name)[:n_nodes].copy() for name in NODE_ARRAYS}
        cut = np.flatnonzero(arrays["node_depth"] == depth)
        arrays["feature"][cut], arrays["threshold"][cut] = LEAF, 0
        arrays["left"][cut] = arrays["right"][cut] = cut
        # Attributes in __init__'s order: a cut pickles byte for byte like the
        # tree trained at ``depth``, so store entries do not depend on which it is.
        clone = object.__new__(DecisionTree)
        clone.n_features = self.n_features
        clone.n_classes = self.n_classes
        clone.resolution_bits = self.resolution_bits
        clone._adopt(arrays)
        return clone

    def __eq__(self, other: object) -> bool:
        """Structural equality: same node arrays and metadata.

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
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in NODE_ARRAYS
            )
        )

    __hash__ = None  # structural equality makes trees unhashable

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return len(self.feature)

    @property
    def n_decision_nodes(self) -> int:
        """Number of comparison nodes (the ``#Comp.`` column of Table I)."""
        return int(np.count_nonzero(self.feature != LEAF))

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return self.n_nodes - self.n_decision_nodes

    @property
    def depth(self) -> int:
        """Depth of the tree (a lone leaf has depth 0)."""
        return int(self.node_depth.max())

    def preorder(self) -> list[int]:
        """Node ids in pre-order: a node, its left subtree, its right subtree."""
        feature, left, right = self.feature.tolist(), self.left.tolist(), self.right.tolist()
        order, stack = [], [0]
        while stack:
            node = stack.pop()
            order.append(node)
            if feature[node] != LEAF:
                stack.append(right[node])
                stack.append(left[node])
        return order

    def paths(self) -> list[tuple[int, tuple[tuple[int, bool], ...]]]:
        """Root-to-leaf paths in pre-order: ``(leaf id, ((node id, took_right), ...))``."""
        feature, left, right = self.feature.tolist(), self.left.tolist(), self.right.tolist()
        paths = []
        stack: list[tuple[int, tuple[tuple[int, bool], ...]]] = [(0, ())]
        while stack:
            node, conditions = stack.pop()
            if feature[node] == LEAF:
                paths.append((node, conditions))
                continue
            stack.append((right[node], conditions + ((node, True),)))
            stack.append((left[node], conditions + ((node, False),)))
        return paths

    # ------------------------------------------------------------------ #
    # model structure queries
    # ------------------------------------------------------------------ #
    def comparisons(self) -> list[tuple[int, int]]:
        """``(feature, threshold_level)`` of every decision node, pre-order (with repeats)."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        return [
            (feature[node], threshold[node])
            for node in self.preorder()
            if feature[node] != LEAF
        ]

    def unique_comparisons(self) -> list[tuple[int, int]]:
        """Sorted unique ``(feature, threshold_level)`` pairs."""
        split = self.feature != LEAF
        return sorted(set(zip(self.feature[split].tolist(), self.threshold[split].tolist())))

    def used_features(self) -> list[int]:
        """Sorted indices of features referenced by at least one split."""
        return np.unique(self.feature[self.feature != LEAF]).tolist()

    def required_levels(self) -> dict[int, tuple[int, ...]]:
        """Per used feature, the sorted unary-digit levels the tree consumes.

        This is precisely the set of comparators each bespoke ADC must retain
        (Section III-B).
        """
        levels: dict[int, tuple[int, ...]] = {}
        for feature, level in self.unique_comparisons():
            levels[feature] = levels.get(feature, ()) + (level,)
        return levels

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def predict_one_level(self, levels) -> int:
        """Predict the class of a single sample given as quantized levels."""
        return int(self.predict_levels(np.asarray(levels)[np.newaxis])[0])

    def predict_levels(self, X_levels: np.ndarray) -> np.ndarray:
        """Predict classes for a matrix of quantized samples (vectorized).

        Every row starts at the root and takes one routing step per tree
        level; rows that reach a leaf early stay there (leaves are their own
        children).
        """
        X_levels = np.asarray(X_levels)
        if X_levels.ndim != 2:
            raise ValueError("expected a 2-D matrix of quantized samples")
        rows = np.arange(len(X_levels))
        node = np.zeros(len(X_levels), dtype=np.int64)
        for _ in range(self.depth):
            go_right = X_levels[rows, self.feature[node]] >= self.threshold[node]
            node = np.where(go_right, self.right[node], self.left[node])
        return self.prediction[node]

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
