"""Conventional (ADC-unaware) greedy Gini decision-tree trainer.

This is the trainer used for the baseline bespoke decision trees of [2]: at
every node the split with the best (minimum) weighted Gini score is chosen,
with ties broken uniformly at random -- which is exactly the behaviour the
paper contrasts Algorithm 1 against ("ADC-unaware training would randomly
select one combination among those with the best Gini score").

The ADC-aware trainer of Algorithm 1
(:class:`repro.core.adc_aware_training.ADCAwareTrainer`) subclasses it for
the hyperparameters, the input checks and the split score, but grows its
tree level by level with its own split choice.

The baseline protocol of Section IV ("the minimum tree depth, up to 8, that
achieves the maximum accuracy is used") is implemented by
:func:`fit_baseline_tree`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.mltrees.evaluation import accuracy_score
from repro.mltrees.split_search import (
    CandidateTable,
    SplitCandidate,
    bind_training_set,
    class_histogram,
    shared_candidates,
)
from repro.mltrees.tree import LEAF, DecisionTree, _from_table

#: Gini scores closer than this are considered equal for tie-breaking.
GINI_TIE_TOLERANCE = 1e-12


class CARTTrainer:
    """Greedy Gini (CART-style) trainer on quantized features.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (number of comparisons along the longest path).
    resolution_bits:
        Input quantization; candidate thresholds are the ADC levels
        ``1 .. 2**resolution_bits - 1``.
    min_samples_leaf:
        Minimum number of training samples each child of a split must hold.
    min_samples_split:
        Minimum number of samples a node must hold to be split further.
    seed:
        Seed of the tie-breaking RNG (training is fully reproducible).
    training_sigma:
        Comparator input-offset sigma assumed during training, as a fraction
        of the ADC full scale (``sigma_volts / vdd``).  With
        ``robustness_weight > 0`` the expected fraction of node samples
        whose comparator digit flips at this sigma is added to every
        candidate's split score, steering thresholds away from dense sample
        regions (offset-aware training).
    robustness_weight:
        Weight of the expected-flip penalty: the split score becomes
        ``gini + robustness_weight * expected_flips``.  The penalty is only
        active when both ``robustness_weight`` and ``training_sigma`` are
        positive (``training_sigma`` defaults to 0, so a bare trainer is
        nominal); at ``robustness_weight=0`` the trainer is bit-identical
        -- same trees, same RNG consumption -- to the nominal Gini trainer
        whatever the sigma.
    """

    def __init__(
        self,
        max_depth: int = 8,
        resolution_bits: int = 4,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        seed: int = 0,
        training_sigma: float = 0.0,
        robustness_weight: float = 1.0,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if resolution_bits < 1:
            raise ValueError("resolution_bits must be at least 1")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("invalid minimum sample constraints")
        if training_sigma < 0:
            raise ValueError("training_sigma must be >= 0")
        if robustness_weight < 0:
            raise ValueError("robustness_weight must be >= 0")
        self.max_depth = max_depth
        self.resolution_bits = resolution_bits
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.seed = seed
        self.training_sigma = training_sigma
        self.robustness_weight = robustness_weight

    @property
    def offset_aware(self) -> bool:
        """Whether the expected-flip penalty participates in split scoring."""
        return self.robustness_weight > 0 and self.training_sigma > 0

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def _checked_inputs(
        self, X_levels: np.ndarray, y: np.ndarray, n_classes: int | None
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """A fit's ``(X_levels, y, n_classes, n_levels)``; ``ValueError`` if malformed."""
        X_levels = np.asarray(X_levels, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if X_levels.ndim != 2:
            raise ValueError("X_levels must be a 2-D matrix")
        if X_levels.shape[1] == 0:
            raise ValueError("X_levels must have at least one feature column")
        if y.ndim != 1:
            raise ValueError("y must be a 1-D label vector")
        if len(X_levels) != len(y):
            raise ValueError("X_levels and y must have the same number of samples")
        if len(y) == 0:
            raise ValueError("cannot train on an empty dataset")
        if n_classes is None:
            n_classes = int(y.max()) + 1
        if y.min() < 0 or y.max() >= n_classes:
            raise ValueError(
                f"class labels must lie in [0, {n_classes - 1}] for "
                f"n_classes={n_classes}, got labels in [{y.min()}, {y.max()}]"
            )
        n_levels = 2 ** self.resolution_bits
        if X_levels.min() < 0 or X_levels.max() >= n_levels:
            raise ValueError(
                f"quantized levels must lie in [0, {n_levels - 1}] "
                f"for {self.resolution_bits}-bit inputs"
            )
        return X_levels, y, n_classes, n_levels

    def fit(self, X_levels: np.ndarray, y: np.ndarray, n_classes: int | None = None) -> DecisionTree:
        """Train a tree on quantized features, depth-first.

        ``y`` holds labels in ``[0, n_classes)`` (``n_classes`` is inferred
        from ``y`` when omitted).  Nodes wait on a LIFO frontier and take
        their id when popped, so the tree grows, numbers and draws
        tie-breaks in pre-order.  Each split is chosen by
        :meth:`_select_split`.  A node appends its node-table row (a leaf's
        until its split is chosen) when it takes its id and writes the id
        into its parent's row; the table becomes the tree's node arrays.
        Inside a :func:`~repro.mltrees.split_search.shared_split_tables`
        scope the fit binds its training set once and nodes come from the
        shared memo.
        """
        X_levels, y, n_classes, n_levels = self._checked_inputs(X_levels, y, n_classes)
        data_key = bind_training_set(X_levels, y, n_classes, n_levels)
        rng = random.Random(self.seed)
        # node-table rows: feature, threshold, left, right, prediction,
        # n_samples, node_depth, then the class counts
        rows: list[list[int]] = []
        # (sample indices, depth, parent row, its left (2) or right (3) column)
        frontier = [(np.arange(len(y)), 0, None, 0)]
        while frontier:
            indices, depth, parent, side = frontier.pop()
            node_id = len(rows)
            counts = class_histogram(y[indices], n_classes)
            prediction, n_samples = int(np.argmax(counts)), int(indices.size)
            row = [LEAF, 0, node_id, node_id, prediction, n_samples, depth, *counts.tolist()]
            rows.append(row)
            if parent is not None:
                parent[side] = node_id

            is_pure = int(np.count_nonzero(counts)) <= 1
            if depth >= self.max_depth or is_pure or indices.size < self.min_samples_split:
                continue
            candidates = self._node_candidates(
                X_levels, y, indices, n_classes, n_levels, data_key
            )
            if not candidates:
                continue

            split = self._select_split(candidates, (), rng)
            mask = X_levels[indices, split.feature] >= split.threshold_level
            right_indices = indices[mask]
            left_indices = indices[~mask]
            if left_indices.size == 0 or right_indices.size == 0:
                continue

            row[:2] = split.feature, split.threshold_level
            # a LIFO frontier pops the last push first: push the right child first
            frontier.append((right_indices, depth + 1, row, 3))
            frontier.append((left_indices, depth + 1, row, 2))

        return DecisionTree(
            _from_table(np.array(rows)),
            n_features=X_levels.shape[1],
            n_classes=n_classes,
            resolution_bits=self.resolution_bits,
        )

    # ------------------------------------------------------------------ #
    # split enumeration / selection policy (both overridden by the legacy
    # reference trainers)
    # ------------------------------------------------------------------ #
    def _node_candidates(
        self,
        X_levels: np.ndarray,
        y: np.ndarray,
        indices: np.ndarray,
        n_classes: int,
        n_levels: int,
        data_key: bytes | None = None,
    ) -> CandidateTable:
        """Candidate splits of one node as a columnar table.

        ``data_key`` is the fit's :func:`~repro.mltrees.split_search.bind_training_set`
        key; without it (as in a loop other than :meth:`fit`) the node is
        enumerated afresh.
        """
        return shared_candidates(
            data_key, X_levels, y, indices, n_classes, n_levels, self.min_samples_leaf,
            flip_sigma=self.training_sigma if self.offset_aware else None,
        )

    def _split_scores(self, candidates: CandidateTable) -> np.ndarray:
        """Per-candidate split score the selection minimizes.

        Nominal Gini unless the trainer is offset-aware, in which case the
        analytic expected-flip fraction joins as a weighted penalty.  With
        ``robustness_weight == 0`` this returns the Gini column itself --
        not a copy -- so the nominal path stays bit-identical to the
        pre-offset-aware trainer.
        """
        if not self.offset_aware:
            return candidates.gini
        return candidates.gini + self.robustness_weight * candidates.expected_flips

    def _select_split(
        self,
        candidates: CandidateTable,
        placed: set[tuple[int, int]],
        rng: random.Random,
    ) -> SplitCandidate:
        """Pick the best-score candidate, breaking ties uniformly at random.

        ``placed`` (the pairs chosen at earlier nodes) plays no part in
        conventional training.  ``rng`` consumption matches the historical
        list-based scan exactly (one draw over the tied set), so seeded
        trainings are bit-identical to the pre-columnar trainer.
        """
        scores = self._split_scores(candidates)
        tied = np.nonzero(scores <= scores.min() + GINI_TIE_TOLERANCE)[0]
        return candidates.candidate(rng.choice(tied.tolist()))


@dataclass(frozen=True)
class BaselineFitResult:
    """Result of the baseline depth-selection protocol."""

    tree: DecisionTree
    depth: int
    train_accuracy: float
    test_accuracy: float
    accuracy_by_depth: dict[int, float]


def fit_baseline_tree(
    X_train_levels: np.ndarray,
    y_train: np.ndarray,
    X_test_levels: np.ndarray,
    y_test: np.ndarray,
    n_classes: int,
    max_depth: int = 8,
    resolution_bits: int = 4,
    seed: int = 0,
) -> BaselineFitResult:
    """Baseline protocol of Section IV: minimum depth achieving maximum accuracy.

    Trains one conventional tree per depth in ``1 .. max_depth`` and returns
    the shallowest tree whose test accuracy equals the best observed test
    accuracy (less hardware for the same quality).
    """
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    accuracy_by_depth: dict[int, float] = {}
    trees: dict[int, DecisionTree] = {}
    for depth in range(1, max_depth + 1):
        trainer = CARTTrainer(
            max_depth=depth, resolution_bits=resolution_bits, seed=seed
        )
        tree = trainer.fit(X_train_levels, y_train, n_classes)
        trees[depth] = tree
        accuracy_by_depth[depth] = accuracy_score(
            y_test, tree.predict_levels(X_test_levels)
        )
    best_accuracy = max(accuracy_by_depth.values())
    best_depth = min(
        depth
        for depth, accuracy in accuracy_by_depth.items()
        if accuracy >= best_accuracy - 1e-12
    )
    chosen = trees[best_depth]
    return BaselineFitResult(
        tree=chosen,
        depth=best_depth,
        train_accuracy=accuracy_score(y_train, chosen.predict_levels(X_train_levels)),
        test_accuracy=accuracy_by_depth[best_depth],
        accuracy_by_depth=accuracy_by_depth,
    )
