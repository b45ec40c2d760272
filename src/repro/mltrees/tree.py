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

Both trainers write their trees in this layout.  CART's depth-first loop
appends a node's row of the node table when the node takes its id and
writes the id into its parent's ``left`` or ``right`` entry, so its ids are
pre-order.  The ADC-aware trainer appends one block of rows per tree level,
so its ids are breadth-first.  A breadth-first tree's nodes down to any
depth are a prefix of its arrays, which is what lets
:meth:`DecisionTree.truncated` cut it by slicing.

Pickling
--------
A tree pickles its metadata and one *packed node table*: the plain triple
``(dtype.str, shape, bytes)`` of the ``(n_nodes, 7 + n_classes)`` table,
narrowed to the smallest signed integer type that holds it.  The bytes name
no numpy class, so unpickling a tree -- every store replay unpickles
hundreds -- imports no numpy.  ``__setstate__`` checks the triple and keeps
it packed; the first access to a node array decodes all of them, and a
still-packed tree pickles the same triple back.  numpy is imported in the
methods that compute.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: ``feature`` value of a leaf.
LEAF = -1

#: The per-node arrays of a :class:`DecisionTree`, in layout-table order.
NODE_ARRAYS = (
    "feature", "threshold", "left", "right",
    "prediction", "n_samples", "class_counts", "node_depth",
)

#: Columns of a node table: the 1-D arrays, then one column per class count.
_TABLE_COLUMNS = tuple(name for name in NODE_ARRAYS if name != "class_counts")

#: Byte width of each ``dtype.str`` a packed node table may have: the signed
#: integer types ``numpy.min_scalar_type`` narrows a table to.
_PACKED_ITEMSIZE = {"|i1": 1, "<i2": 2, "<i4": 4, "<i8": 8, ">i2": 2, ">i4": 4, ">i8": 8}


def _from_table(table: np.ndarray) -> dict[str, np.ndarray]:
    """Split an ``(n_nodes, 7 + n_classes)`` node table into the node arrays."""
    import numpy as np

    columns = np.array(table.T, dtype=np.int64)
    arrays = dict(zip(_TABLE_COLUMNS, columns))
    arrays["class_counts"] = np.ascontiguousarray(columns[len(_TABLE_COLUMNS):].T)
    return arrays


def _checked_packed(packed, n_classes: int) -> tuple[str, tuple[int, int], bytes]:
    """``packed`` if it is a node table triple this code can decode.

    Checked without numpy, so a malformed pickle fails while it is loaded,
    not at its first array access.
    """
    if type(packed) is not tuple or len(packed) != 3:
        raise TypeError(
            "a pickled tree's nodes must be a (dtype.str, shape, bytes) triple, "
            f"got a {type(packed).__name__}"
        )
    dtype, shape, data = packed
    if dtype not in _PACKED_ITEMSIZE:
        raise TypeError(f"node table dtype {dtype!r} is not a signed integer type")
    if (
        type(shape) is not tuple
        or [type(n) for n in shape] != [int, int]
        or shape[0] < 1
        or shape[1] != len(_TABLE_COLUMNS) + n_classes
        or type(data) is not bytes
        or len(data) != _PACKED_ITEMSIZE[dtype] * shape[0] * shape[1]
    ):
        raise ValueError(
            f"a {dtype} node table of shape {shape!r} does not hold {n_classes} "
            "classes in its bytes"
        )
    return packed


class DecisionTree:
    """A trained, quantized decision-tree classifier.

    ``nodes`` maps each of :data:`NODE_ARRAYS` to its array, laid out as in
    the module docstring; the tree keeps them as read-only attributes.
    """

    def __init__(
        self,
        nodes: dict[str, np.ndarray],
        n_features: int,
        n_classes: int,
        resolution_bits: int = 4,
    ):
        self._set_metadata(n_features, n_classes, resolution_bits)
        self._set_nodes(nodes)

    def _set_metadata(self, n_features: int, n_classes: int, resolution_bits: int) -> None:
        if n_features < 1:
            raise ValueError("a decision tree needs at least one input feature")
        if n_classes < 2:
            raise ValueError("a classifier needs at least two classes")
        if resolution_bits < 1:
            raise ValueError("resolution must be at least 1 bit")
        self.n_features = n_features
        self.n_classes = n_classes
        self.resolution_bits = resolution_bits

    def _set_nodes(self, nodes: dict[str, np.ndarray]) -> None:
        import numpy as np

        # Read-only, so trees may share node arrays safely.
        for name in NODE_ARRAYS:
            array = np.asarray(nodes[name], dtype=np.int64)
            array.flags.writeable = False
            setattr(self, name, array)

    def __getstate__(self) -> dict:
        state = {
            k: v for k, v in self.__dict__.items() if k not in NODE_ARRAYS and k != "_packed"
        }
        packed = self.__dict__.get("_packed")
        if packed is None:
            import numpy as np

            # One node table of the narrowest integer type that holds it keeps
            # store entries and registry artifacts small.
            table = np.column_stack(
                [*(getattr(self, name) for name in _TABLE_COLUMNS), self.class_counts]
            )
            table = table.astype(np.min_scalar_type(-1 - int(table.max())))
            packed = (table.dtype.str, table.shape, table.tobytes())
        state["nodes"] = packed
        return state

    def __setstate__(self, state: dict) -> None:
        packed = state.pop("nodes")
        self._set_metadata(**state)
        self._packed = _checked_packed(packed, self.n_classes)

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance does not hold: the node
        # arrays of a tree unpickled with its table still packed.
        packed = self.__dict__.get("_packed") if name in NODE_ARRAYS else None
        if packed is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        import numpy as np

        dtype, shape, data = packed
        self._set_nodes(_from_table(np.frombuffer(data, dtype=dtype).reshape(shape)))
        self.__dict__.pop("_packed", None)
        return self.__dict__[name]

    def with_thresholds(self, threshold: np.ndarray) -> DecisionTree:
        """This tree with its ``threshold`` array replaced (other arrays shared)."""
        import numpy as np

        threshold = np.array(threshold, dtype=np.int64)
        if threshold.shape != self.threshold.shape:
            raise ValueError(
                f"expected {self.threshold.shape[0]} thresholds, got shape {threshold.shape}"
            )
        nodes = {name: getattr(self, name) for name in NODE_ARRAYS} | {"threshold": threshold}
        return DecisionTree(nodes, self.n_features, self.n_classes, self.resolution_bits)

    def truncated(self, depth: int) -> DecisionTree:
        """This tree cut at ``depth``: its nodes down to ``depth``, the deepest made leaves.

        Only a tree whose nodes at depth ``<= depth`` are the ids
        ``0..n-1`` -- a breadth-first tree -- can be cut by slicing its
        arrays; anything else (a pre-order CART tree) raises ``ValueError``.
        """
        import numpy as np

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
        nodes = {name: getattr(self, name)[:n_nodes].copy() for name in NODE_ARRAYS}
        cut = np.flatnonzero(nodes["node_depth"] == depth)
        nodes["feature"][cut], nodes["threshold"][cut] = LEAF, 0
        nodes["left"][cut] = nodes["right"][cut] = cut
        return DecisionTree(nodes, self.n_features, self.n_classes, self.resolution_bits)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same node arrays and metadata.

        Lets higher-level records embedding trees (``DesignPoint``,
        ``CoDesignResult``) compare by value, e.g. when asserting that
        serial and parallel experiment runs produce identical results.
        """
        import numpy as np

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

    def digest(self) -> str:
        """sha256 of the tree's content: its metadata and every node array as int64.

        Equal trees (``==``) digest equal, whichever objects hold them.
        Computed on each call and never stored on the tree, so it cannot
        change the tree's pickle.
        """
        import numpy as np

        digest = hashlib.sha256(
            repr((self.n_features, self.n_classes, self.resolution_bits)).encode()
        )
        for name in NODE_ARRAYS:
            array = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
        return digest.hexdigest()

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
        import numpy as np

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
        import numpy as np

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
        import numpy as np

        return int(self.predict_levels(np.asarray(levels)[np.newaxis])[0])

    def predict_levels(self, X_levels: np.ndarray) -> np.ndarray:
        """Predict classes for a matrix of quantized samples (vectorized).

        Every row starts at the root and takes one routing step per tree
        level; rows that reach a leaf early stay there (leaves are their own
        children).
        """
        import numpy as np

        X_levels = np.asarray(X_levels)
        if X_levels.ndim != 2 or X_levels.shape[1] != self.n_features:
            raise ValueError(
                f"expected a 2-D matrix of quantized samples with {self.n_features} "
                f"columns, got shape {X_levels.shape}"
            )
        rows = np.arange(len(X_levels))
        node = np.zeros(len(X_levels), dtype=np.int64)
        for _ in range(self.depth):
            go_right = X_levels[rows, self.feature[node]] >= self.threshold[node]
            node = np.where(go_right, self.right[node], self.left[node])
        return self.prediction[node]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict classes for raw, normalized samples in ``[0, 1]``."""
        import numpy as np

        from repro.adc.thermometer import quantize_array_to_levels

        levels = quantize_array_to_levels(np.asarray(X, dtype=float), self.resolution_bits)
        return self.predict_levels(levels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecisionTree(depth={self.depth}, decision_nodes={self.n_decision_nodes}, "
            f"leaves={self.n_leaves}, features={self.n_features}, "
            f"classes={self.n_classes}, bits={self.resolution_bits})"
        )
