"""Pre-columnar split search and pre-merge growth loops, retained as oracles.

This module preserves, verbatim, the object-based split enumeration and the
list-based split-selection policies that predate the columnar
:class:`~repro.mltrees.split_search.CandidateTable` refactor: one Python loop
per feature, one :class:`~repro.mltrees.split_search.SplitCandidate` object
per (feature, threshold) pair, and interpreter-speed ``min``/list-comp scans
during selection.  It also keeps the object-list helpers that left the
production modules with them: the list branch of ``partition_by_cost``
(:func:`legacy_partition_by_cost`), the table <-> list conversions
(:func:`table_from_candidates`, :func:`candidate_list`),
:func:`best_gini` over a candidate list and the table row selection
(:func:`select_rows`).

It further keeps the two tree-growth loops the production trainers
replaced: the recursive pre-order loop of the CART
trainer (:class:`LegacyCARTGrowth`) and the breadth-first queue loop of the
ADC-aware trainer (:class:`LegacyADCAwareGrowth`), copied verbatim except
that the split choice goes through the three-argument hook
``_select_split(candidates, placed, rng)`` and that the loop returns the
linked :class:`~oracles.tree_walk.LinkedTree` it built.  Each loop is a
``fit_linked`` that drives its trainer's ``_node_candidates`` /
``_select_split`` hooks, so ``LegacyCARTGrowth.fit_linked(trainer, ...)``
grows a production CART tree the old way, as linked nodes (an ADC-aware
tree through the hooks of :func:`oracles.per_node_training.per_node`);
``fit`` converts that tree through the legacy pickle-state path
(:meth:`~oracles.tree_walk.LinkedTree.to_tree`).

No production path uses it.  It exists so that

* the trainer-equivalence tests can assert that the columnar trainers
  produce node-for-node identical trees (same RNG stream, same tie-breaks),
* the growth-equivalence tests can assert that the production loops grow,
  number and draw exactly like the two loops they replaced,
* the layout-equivalence and depth-family tests can compare the production
  node arrays with the linked nodes the old loops build, and
* ``benchmarks/bench_training_throughput.py`` can measure the columnar
  speedup against the true historical hot loop

-- the same pattern as ``_predict_with_offsets_scalar`` in
:mod:`oracles.variation` for the inference refactor.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from oracles.tree_walk import LinkedTree
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.mltrees.cart import CARTTrainer, GINI_TIE_TOLERANCE
from repro.mltrees.split_search import (
    CandidateTable,
    SplitCandidate,
    class_histogram,
)
from repro.mltrees.tree import DecisionTree, TreeNode


def legacy_enumerate_split_candidates(
    X_levels: np.ndarray,
    y: np.ndarray,
    indices: np.ndarray,
    n_classes: int,
    n_levels: int,
    min_samples_leaf: int = 1,
) -> list[SplitCandidate]:
    """The historical enumeration: per-feature loop, one object per candidate."""
    indices = np.asarray(indices)
    if indices.size == 0:
        return []
    y_node = y[indices]
    n_node = indices.size
    candidates: list[SplitCandidate] = []
    thresholds = np.arange(1, n_levels)  # k = 1 .. n_levels - 1

    for feature in range(X_levels.shape[1]):
        values = X_levels[indices, feature]
        # hist[level, class] = number of node samples at that level and class
        flat = np.bincount(
            values * n_classes + y_node, minlength=n_levels * n_classes
        )
        hist = flat.reshape(n_levels, n_classes)
        total_counts = hist.sum(axis=0)
        # left child of threshold k = samples with level < k
        cumulative = np.cumsum(hist, axis=0)
        left_counts = cumulative[thresholds - 1]          # shape (n_thresholds, C)
        right_counts = total_counts[None, :] - left_counts
        n_left = left_counts.sum(axis=1)
        n_right = right_counts.sum(axis=1)

        valid = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        if not np.any(valid):
            continue

        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = 1.0 - np.sum(
                (left_counts / np.maximum(n_left, 1)[:, None]) ** 2, axis=1
            )
            gini_right = 1.0 - np.sum(
                (right_counts / np.maximum(n_right, 1)[:, None]) ** 2, axis=1
            )
        weighted = (n_left * gini_left + n_right * gini_right) / n_node

        for position in np.nonzero(valid)[0]:
            candidates.append(
                SplitCandidate(
                    feature=feature,
                    threshold_level=int(thresholds[position]),
                    gini=float(weighted[position]),
                    n_left=int(n_left[position]),
                    n_right=int(n_right[position]),
                )
            )
    return candidates


def candidate_list(table: CandidateTable) -> list[SplitCandidate]:
    """A candidate table as the historical object list, one object per row.

    The one way tests compare a columnar table with an object list (the
    table's former iteration, indexing, ``to_list`` and list equality).
    """
    return [table.candidate(i) for i in range(len(table))]


def table_from_candidates(candidates: Sequence[SplitCandidate]) -> CandidateTable:
    """Build a table from an object-based candidate list."""
    if not candidates:
        return CandidateTable.empty()
    return CandidateTable(
        feature=np.array([c.feature for c in candidates], dtype=np.int64),
        threshold_level=np.array(
            [c.threshold_level for c in candidates], dtype=np.int64
        ),
        gini=np.array([c.gini for c in candidates], dtype=np.float64),
        n_left=np.array([c.n_left for c in candidates], dtype=np.int64),
        n_right=np.array([c.n_right for c in candidates], dtype=np.int64),
    )


def select_rows(table: CandidateTable, which: np.ndarray) -> CandidateTable:
    """Sub-table of the rows picked by a boolean mask or index array."""
    return CandidateTable(
        feature=table.feature[which],
        threshold_level=table.threshold_level[which],
        gini=table.gini[which],
        n_left=table.n_left[which],
        n_right=table.n_right[which],
        expected_flips=(
            None if table.expected_flips is None else table.expected_flips[which]
        ),
    )


def best_gini(candidates: Sequence[SplitCandidate]) -> float:
    """Minimum Gini score among ``candidates`` (``inf`` when empty)."""
    if not candidates:
        return float("inf")
    return min(candidate.gini for candidate in candidates)


@dataclass(frozen=True)
class LegacyCostSets:
    """The S_Z / S_M / S_H partition of an object list, as tuples."""

    zero_cost: tuple[SplitCandidate, ...]
    medium_cost: tuple[SplitCandidate, ...]
    high_cost: tuple[SplitCandidate, ...]


def legacy_partition_by_cost(
    candidates: list[SplitCandidate],
    selected_pairs: set[tuple[int, int]],
    selected_features: set[int],
) -> LegacyCostSets:
    """The historical per-candidate scan of Algorithm 1's cost partition."""
    zero_list: list[SplitCandidate] = []
    medium_list: list[SplitCandidate] = []
    high_list: list[SplitCandidate] = []
    for candidate in candidates:
        pair = (candidate.feature, candidate.threshold_level)
        if pair in selected_pairs:
            zero_list.append(candidate)
        elif candidate.feature in selected_features:
            medium_list.append(candidate)
        else:
            high_list.append(candidate)
    return LegacyCostSets(tuple(zero_list), tuple(medium_list), tuple(high_list))


class LegacyCARTGrowth:
    """The CART trainer's recursive growth loop: pre-order ids and draws."""

    def fit(self, X_levels: np.ndarray, y: np.ndarray, n_classes: int | None = None) -> DecisionTree:
        """The array-layout tree of :meth:`fit_linked`."""
        return LegacyCARTGrowth.fit_linked(self, X_levels, y, n_classes).to_tree()

    def fit_linked(
        self, X_levels: np.ndarray, y: np.ndarray, n_classes: int | None = None
    ) -> LinkedTree:
        """Train a tree on quantized features.

        Parameters
        ----------
        X_levels:
            Quantized feature matrix (integer levels).
        y:
            Integer class labels in ``[0, n_classes - 1]``.
        n_classes:
            Number of classes (inferred from ``y`` when omitted).
        """
        X_levels = np.asarray(X_levels, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if X_levels.ndim != 2:
            raise ValueError("X_levels must be a 2-D matrix")
        if len(X_levels) != len(y):
            raise ValueError("X_levels and y must have the same number of samples")
        if len(y) == 0:
            raise ValueError("cannot train on an empty dataset")
        if n_classes is None:
            n_classes = int(y.max()) + 1
        n_levels = 2 ** self.resolution_bits
        if X_levels.min() < 0 or X_levels.max() >= n_levels:
            raise ValueError(
                f"quantized levels must lie in [0, {n_levels - 1}] "
                f"for {self.resolution_bits}-bit inputs"
            )

        rng = random.Random(self.seed)
        node_counter = [0]

        def build(indices: np.ndarray, depth: int) -> TreeNode:
            counts = class_histogram(y[indices], n_classes)
            prediction = int(np.argmax(counts))
            node = TreeNode(
                node_id=node_counter[0],
                prediction=prediction,
                n_samples=int(indices.size),
                class_counts=tuple(int(c) for c in counts),
                depth=depth,
            )
            node_counter[0] += 1

            is_pure = int(np.count_nonzero(counts)) <= 1
            if depth >= self.max_depth or is_pure or indices.size < self.min_samples_split:
                return node

            candidates = self._node_candidates(X_levels, y, indices, n_classes, n_levels)
            if not candidates:
                return node

            split = self._select_split(candidates, set(), rng)
            mask = X_levels[indices, split.feature] >= split.threshold_level
            right_indices = indices[mask]
            left_indices = indices[~mask]
            if left_indices.size == 0 or right_indices.size == 0:
                return node

            node.feature = split.feature
            node.threshold_level = split.threshold_level
            node.left = build(left_indices, depth + 1)
            node.right = build(right_indices, depth + 1)
            return node

        root = build(np.arange(len(y)), 0)
        return LinkedTree(
            root=root,
            n_features=X_levels.shape[1],
            n_classes=n_classes,
            resolution_bits=self.resolution_bits,
        )


class LegacyADCAwareGrowth:
    """The ADC-aware trainer's queue growth loop: breadth-first ids and draws."""

    def fit(
        self, X_levels: np.ndarray, y: np.ndarray, n_classes: int | None = None
    ) -> DecisionTree:
        """The array-layout tree of :meth:`fit_linked`."""
        return LegacyADCAwareGrowth.fit_linked(self, X_levels, y, n_classes).to_tree()

    def fit_linked(
        self, X_levels: np.ndarray, y: np.ndarray, n_classes: int | None = None
    ) -> LinkedTree:
        """Train an ADC-aware tree on quantized features.

        The tree is grown breadth-first so that the global set of already
        selected ``(feature, threshold)`` pairs -- which defines the cost of
        future selections -- evolves in the node order of Algorithm 1.
        """
        X_levels = np.asarray(X_levels, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        if X_levels.ndim != 2:
            raise ValueError("X_levels must be a 2-D matrix")
        if len(X_levels) != len(y):
            raise ValueError("X_levels and y must have the same number of samples")
        if len(y) == 0:
            raise ValueError("cannot train on an empty dataset")
        if n_classes is None:
            n_classes = int(y.max()) + 1
        n_levels = 2 ** self.resolution_bits
        if X_levels.min() < 0 or X_levels.max() >= n_levels:
            raise ValueError(
                f"quantized levels must lie in [0, {n_levels - 1}] for "
                f"{self.resolution_bits}-bit inputs"
            )

        rng = random.Random(self.seed)
        selected_pairs: set[tuple[int, int]] = set()
        selected_features: set[int] = set()
        node_counter = 0

        def make_node(indices: np.ndarray, depth: int) -> TreeNode:
            nonlocal node_counter
            counts = class_histogram(y[indices], n_classes)
            node = TreeNode(
                node_id=node_counter,
                prediction=int(np.argmax(counts)),
                n_samples=int(indices.size),
                class_counts=tuple(int(c) for c in counts),
                depth=depth,
            )
            node_counter += 1
            return node

        root_indices = np.arange(len(y))
        root = make_node(root_indices, 0)
        queue: deque[tuple[TreeNode, np.ndarray]] = deque([(root, root_indices)])

        while queue:
            node, indices = queue.popleft()
            counts = np.asarray(node.class_counts)
            is_pure = int(np.count_nonzero(counts)) <= 1
            if (
                node.depth >= self.max_depth
                or is_pure
                or indices.size < self.min_samples_split
            ):
                continue
            candidates = self._node_candidates(X_levels, y, indices, n_classes, n_levels)
            if not candidates:
                continue
            split = self._select_split(candidates, selected_pairs, rng)

            mask = X_levels[indices, split.feature] >= split.threshold_level
            right_indices = indices[mask]
            left_indices = indices[~mask]
            if left_indices.size == 0 or right_indices.size == 0:
                continue

            node.feature = split.feature
            node.threshold_level = split.threshold_level
            selected_pairs.add((split.feature, split.threshold_level))
            selected_features.add(split.feature)

            node.left = make_node(left_indices, node.depth + 1)
            node.right = make_node(right_indices, node.depth + 1)
            queue.append((node.left, left_indices))
            queue.append((node.right, right_indices))

        return LinkedTree(
            root=root,
            n_features=X_levels.shape[1],
            n_classes=n_classes,
            resolution_bits=self.resolution_bits,
        )


class LegacyCARTTrainer(LegacyCARTGrowth, CARTTrainer):
    """CART trainer on the historical object-based split search and loop."""

    def _node_candidates(
        self,
        X_levels: np.ndarray,
        y: np.ndarray,
        indices: np.ndarray,
        n_classes: int,
        n_levels: int,
    ) -> list[SplitCandidate]:
        return legacy_enumerate_split_candidates(
            X_levels, y, indices, n_classes, n_levels, self.min_samples_leaf
        )

    def _select_split(
        self,
        candidates: list[SplitCandidate],
        placed: set[tuple[int, int]],
        rng: random.Random,
    ) -> SplitCandidate:
        """The historical list scan: Python ``min`` plus a list comprehension."""
        best = min(candidate.gini for candidate in candidates)
        tied = [c for c in candidates if c.gini <= best + GINI_TIE_TOLERANCE]
        return rng.choice(tied)


class LegacyADCAwareTrainer(LegacyADCAwareGrowth, ADCAwareTrainer):
    """ADC-aware trainer on the historical object-based split search and loop."""

    def _node_candidates(
        self,
        X_levels: np.ndarray,
        y: np.ndarray,
        indices: np.ndarray,
        n_classes: int,
        n_levels: int,
    ) -> list[SplitCandidate]:
        return legacy_enumerate_split_candidates(
            X_levels, y, indices, n_classes, n_levels, self.min_samples_leaf
        )

    def _select_split(
        self,
        candidates: list[SplitCandidate],
        placed: set[tuple[int, int]],
        rng: random.Random,
    ) -> SplitCandidate:
        """The historical Algorithm 1 selection over candidate object lists."""
        selected_features = {feature for feature, _ in placed}
        best_gini = min(candidate.gini for candidate in candidates)
        tolerance_set = [
            c for c in candidates if c.gini <= best_gini + self.gini_threshold + 1e-15
        ]
        sets = legacy_partition_by_cost(tolerance_set, placed, selected_features)

        if sets.zero_cost:
            pool = list(sets.zero_cost)
            target_gini = min(c.gini for c in pool)
            finalists = [c for c in pool if c.gini <= target_gini + GINI_TIE_TOLERANCE]
            return rng.choice(finalists)

        pool = list(sets.medium_cost) if sets.medium_cost else list(sets.high_cost)
        if self.prefer_low_power_levels:
            # Secondary objective: smallest threshold => lowest-power comparator.
            min_level = min(c.threshold_level for c in pool)
            pool = [c for c in pool if c.threshold_level == min_level]
        target_gini = min(c.gini for c in pool)
        finalists = [c for c in pool if c.gini <= target_gini + GINI_TIE_TOLERANCE]
        return rng.choice(finalists)
