"""Model evaluation utilities: accuracy, confusion matrix, stratified splitting.

The paper's protocol is a random 70 %/30 % train/test split on inputs
normalized to ``[0, 1]``; this module provides the (seeded, stratified)
splitting and the metrics used throughout the evaluation.  Accuracy scores
quantized levels with the tree's depth-bounded gather over its node arrays
(:meth:`DecisionTree.predict_levels
<repro.mltrees.tree.DecisionTree.predict_levels>`), the fastest evaluator
on test-set-sized batches of levels (see ``docs/KERNELS.md``).
"""

from __future__ import annotations

import numpy as np


def evaluate_tree_accuracy(tree, X_levels: np.ndarray, y: np.ndarray) -> float:
    """Test accuracy of a trained tree on quantized samples."""
    return accuracy_score(y, tree.predict_levels(X_levels))


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
