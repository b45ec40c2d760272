"""The per-trial precision search of baseline [7], before the packed split.

:func:`repro.baselines.balaskas._greedy_precision_scaling` scores each
precision trial as one walk of a :class:`~repro.mltrees.evaluation.PackedSplit`,
looking up the rows of each moved node's truncated threshold.  The search
it replaced built an approximated tree per trial (:func:`approximate_tree`,
one ``with_thresholds`` copy with the truncation written out over the
threshold array) and scored it with ``predict_levels`` and
``accuracy_score``.  Both are kept here verbatim as the reference: the
packed search must return the same ``(bits, accuracy)`` for every
candidate tree, and the packed scorer the same accuracy for every bit
assignment.
"""

from __future__ import annotations

import numpy as np

from repro.mltrees.evaluation import accuracy_score
from repro.mltrees.tree import LEAF, DecisionTree


def approximate_tree(tree: DecisionTree, per_feature_bits: dict[int, int]) -> DecisionTree:
    """Snap every threshold of ``tree`` onto the coarser grid of its feature.

    Reducing input ``f`` to ``b`` bits keeps only its ``b`` most significant
    bits, so a full-resolution threshold ``k`` becomes
    ``max(k >> (R - b), 1) << (R - b)``.  One transform of the ``threshold``
    array; the other node arrays are shared.
    """
    resolution = tree.resolution_bits
    shift_of = np.zeros(tree.n_features, dtype=np.int64)
    for feature, bits in per_feature_bits.items():
        if 0 <= feature < tree.n_features:
            shift_of[feature] = resolution - min(max(int(bits), 1), resolution)
    shift = shift_of[tree.feature]  # leaves (feature -1) are masked below
    return tree.with_thresholds(np.where(
        tree.feature != LEAF,
        np.maximum(tree.threshold >> shift, 1) << shift,
        tree.threshold,
    ))


def greedy_precision_scaling(
    tree: DecisionTree,
    X_test_levels: np.ndarray,
    y_test: np.ndarray,
    accuracy_floor: float,
    resolution_bits: int,
    accuracy: float,
) -> tuple[dict[int, int], float]:
    """Greedily reduce per-input precision while staying above ``accuracy_floor``.

    ``accuracy`` is the full-precision tree's test accuracy, the search's
    starting point.  Returns the accepted per-feature bit widths and the
    accuracy of the final approximated tree.
    """
    bits = {feature: resolution_bits for feature in tree.used_features()}
    improved = True
    while improved:
        improved = False
        for feature in sorted(bits):
            if bits[feature] <= 1:
                continue
            trial = dict(bits)
            trial[feature] = bits[feature] - 1
            trial_accuracy = accuracy_score(
                y_test, approximate_tree(tree, trial).predict_levels(X_test_levels)
            )
            if trial_accuracy >= accuracy_floor:
                bits = trial
                accuracy = trial_accuracy
                improved = True
    return bits, accuracy
