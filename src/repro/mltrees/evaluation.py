"""Model evaluation utilities: accuracy, confusion matrix, stratified splitting.

The paper's protocol is a random 70 %/30 % train/test split on inputs
normalized to ``[0, 1]``; this module provides the (seeded, stratified)
splitting and the metrics used throughout the evaluation.

Protocol accuracy -- the design grid, baseline [2]'s depth sweep and
baseline [7]'s precision trials -- scores many trees on one test split, so
the split is packed once (:class:`PackedSplit`) and every tree is a walk
over Python-int row bitsets.  A one-off prediction of a matrix of levels
uses the tree's depth-bounded gather over its node arrays
(:meth:`DecisionTree.predict_levels
<repro.mltrees.tree.DecisionTree.predict_levels>`); see ``docs/KERNELS.md``.
"""

from __future__ import annotations

import numpy as np

from repro.mltrees.tree import LEAF


def _row_bitsets(masks: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as an int whose bit ``r`` is its column ``r``."""
    packed = np.packbits(masks, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return tuple(
        int.from_bytes(data[start:start + width], "little")
        for start in range(0, len(data), width)
    )


class PackedSplit:
    """A split's quantized rows and labels as Python-int row bitsets.

    Bit ``r`` of every bitset stands for row ``r``.  ``at_least[f][k]`` holds
    the rows whose level of feature ``f`` is ``>= k`` -- the rows a node
    splitting ``f`` at ``k`` sends right -- for every level from 0 to the
    largest in the split, and ``class_rows[c]`` the rows labelled ``c``.
    Scoring a tree is then a walk over its nodes with one ``&`` and one
    ``^`` per decision node and one popcount per leaf, however many rows
    the split holds and whatever their order: the same float
    :func:`accuracy_score` returns for the tree's predictions.

    Levels must be non-negative integers.  The columns are packed one
    feature at a time, so packing never holds more than one feature's
    ``(levels, rows)`` comparison at once.
    """

    def __init__(self, X_levels: np.ndarray, y: np.ndarray):
        X_levels, y = np.asarray(X_levels), np.asarray(y)
        if X_levels.ndim != 2 or len(X_levels) != len(y):
            raise ValueError(
                f"expected a 2-D matrix of quantized samples with one row per "
                f"label, got shapes {X_levels.shape} and {y.shape}"
            )
        if y.size == 0:
            raise ValueError("cannot compute accuracy of an empty label vector")
        if X_levels.min(initial=0) < 0:
            raise ValueError("quantized levels must be non-negative")
        self.n_rows, self.n_features = X_levels.shape
        levels = np.arange(int(X_levels.max(initial=0)) + 1)[:, np.newaxis]
        self.at_least = tuple(
            _row_bitsets(X_levels[:, feature] >= levels) for feature in range(self.n_features)
        )
        labels = np.unique(y)
        self.class_rows = dict(
            zip(labels.tolist(), _row_bitsets(y == labels[:, np.newaxis]))
        )
        self.all_rows = (1 << self.n_rows) - 1

    def rows_at_least(self, feature: int, level: int) -> int:
        """Rows whose level of ``feature`` is ``>= level``."""
        columns = self.at_least[feature]
        return columns[max(level, 0)] if level < len(columns) else 0

    def digits(self, feature: list[int], threshold: list[int]) -> list[int]:
        """Per node, the rows its comparison sends right (0 at leaves).

        ``feature`` and ``threshold`` are a tree's node arrays as lists.
        """
        rows_at_least = self.rows_at_least
        return [
            0 if f == LEAF else rows_at_least(f, k) for f, k in zip(feature, threshold)
        ]

    def score(
        self,
        feature: list[int],
        left: list[int],
        right: list[int],
        prediction: list[int],
        digits: list[int],
    ) -> float:
        """Accuracy of the tree whose node arrays (as lists) and ``digits`` are given.

        Walks from the root with the rows that reach each node: ``digits``
        of a decision node splits them into the right child's rows (``&``)
        and the left child's (``^``), empty subtrees are skipped, and each
        leaf counts the rows labelled with its prediction.
        """
        class_rows = self.class_rows
        correct = 0
        stack = [(0, self.all_rows)]
        pop, push = stack.pop, stack.append
        while stack:
            node, rows = pop()
            if feature[node] == LEAF:
                correct += (rows & class_rows.get(prediction[node], 0)).bit_count()
                continue
            taken = rows & digits[node]
            if taken:
                push((right[node], taken))
            if taken != rows:
                push((left[node], rows ^ taken))
        return correct / self.n_rows

    def accuracy(self, tree) -> float:
        """``accuracy_score(y, tree.predict_levels(X_levels))`` of the packed split."""
        if tree.n_features != self.n_features:
            raise ValueError(
                f"a tree over {tree.n_features} features cannot score a split "
                f"of {self.n_features}"
            )
        feature = tree.feature.tolist()
        return self.score(
            feature, tree.left.tolist(), tree.right.tolist(), tree.prediction.tolist(),
            self.digits(feature, tree.threshold.tolist()),
        )


def evaluate_tree_accuracy(tree, test_rows: PackedSplit) -> float:
    """Test accuracy of a trained tree on a packed split."""
    return test_rows.accuracy(tree)


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of correctly classified samples."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch between labels {y_true.shape} and predictions {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("cannot compute accuracy of an empty label vector")
    return float(np.mean(y_true == y_pred))


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_classes: int) -> np.ndarray:
    """Confusion matrix ``M[i, j]`` = samples of true class ``i`` predicted ``j``."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("labels and predictions must have the same shape")
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def train_test_split(
    X: np.ndarray,
    y: np.ndarray,
    test_size: float = 0.3,
    seed: int = 0,
    stratify: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split ``(X, y)`` into train and test partitions.

    Parameters
    ----------
    X, y:
        Feature matrix and label vector.
    test_size:
        Fraction of samples assigned to the test partition (paper: 0.3).
    seed:
        Seed of the shuffling RNG; splits are fully reproducible.
    stratify:
        When True (default) each class is split independently so the class
        balance of the partitions matches the full dataset -- important for
        the small benchmark datasets.

    Returns
    -------
    (X_train, X_test, y_train, y_test)
    """
    X = np.asarray(X)
    y = np.asarray(y)
    if len(X) != len(y):
        raise ValueError("X and y must contain the same number of samples")
    if not 0.0 < test_size < 1.0:
        raise ValueError("test_size must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)

    test_indices: list[np.ndarray] = []
    train_indices: list[np.ndarray] = []
    if stratify:
        for label in np.unique(y):
            members = np.nonzero(y == label)[0]
            members = rng.permutation(members)
            n_test = int(round(len(members) * test_size))
            n_test = min(max(n_test, 1 if len(members) > 1 else 0), len(members) - 1)
            test_indices.append(members[:n_test])
            train_indices.append(members[n_test:])
    else:
        order = rng.permutation(len(y))
        n_test = int(round(len(y) * test_size))
        test_indices.append(order[:n_test])
        train_indices.append(order[n_test:])

    test_idx = np.concatenate(test_indices) if test_indices else np.array([], dtype=int)
    train_idx = np.concatenate(train_indices) if train_indices else np.array([], dtype=int)
    test_idx = rng.permutation(test_idx)
    train_idx = rng.permutation(train_idx)
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]
