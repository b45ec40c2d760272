"""Pre-columnar split search, retained as the equivalence/throughput oracle.

This module preserves, verbatim, the object-based split enumeration and the
list-based split-selection policies that predate the columnar
:class:`~repro.mltrees.split_search.CandidateTable` refactor: one Python loop
per feature, one :class:`~repro.mltrees.split_search.SplitCandidate` object
per (feature, threshold) pair, and interpreter-speed ``min``/list-comp scans
during selection.

No production path uses it.  It exists so that

* the trainer-equivalence tests can assert that the columnar trainers
  produce node-for-node identical trees (same RNG stream, same tie-breaks),
  and
* ``benchmarks/bench_training_throughput.py`` can measure the columnar
  speedup against the true historical hot loop

-- the same pattern as ``_predict_with_offsets_scalar`` in
:mod:`oracles.variation` for the inference refactor.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.adc_aware_training import ADCAwareTrainer, partition_by_cost
from repro.mltrees.cart import CARTTrainer, GINI_TIE_TOLERANCE
from repro.mltrees.split_search import SplitCandidate


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


class LegacyCARTTrainer(CARTTrainer):
    """CART trainer on the historical object-based split search."""

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
        self, candidates: list[SplitCandidate], rng: random.Random
    ) -> SplitCandidate:
        """The historical list scan: Python ``min`` plus a list comprehension."""
        best = min(candidate.gini for candidate in candidates)
        tied = [c for c in candidates if c.gini <= best + GINI_TIE_TOLERANCE]
        return rng.choice(tied)


class LegacyADCAwareTrainer(ADCAwareTrainer):
    """ADC-aware trainer on the historical object-based split search."""

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
        selected_pairs: set[tuple[int, int]],
        selected_features: set[int],
        rng: random.Random,
    ) -> SplitCandidate:
        """The historical Algorithm 1 selection over candidate object lists."""
        best_gini = min(candidate.gini for candidate in candidates)
        tolerance_set = [
            c for c in candidates if c.gini <= best_gini + self.gini_threshold + 1e-15
        ]
        sets = partition_by_cost(tolerance_set, selected_pairs, selected_features)

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
