"""Per-node ADC-aware training and the margin column, retained as oracles.

:class:`~repro.core.adc_aware_training.ADCAwareTrainer` grows a tree one
level at a time: one batched enumeration per depth and Algorithm 1's split
choice on index arrays.  Before that it was ``CARTTrainer``'s growth loop
with a FIFO frontier, one :class:`~repro.mltrees.split_search.CandidateTable`
per node and a table-based split choice through the cost partition below.
:class:`PerNodeADCAwareTrainer` keeps that trainer: the FIFO loop, the
``_select_split(candidates, placed, rng)`` hook and
:func:`partition_by_cost` / :class:`SplitCostSets`, as they were.  Its
``_node_candidates`` / ``_select_split`` hooks also let the pre-merge
queue loop (:class:`oracles.legacy_split_search.LegacyADCAwareGrowth`)
grow the same trees.

:func:`node_margins` is the ``margin`` robustness column that
:func:`~repro.mltrees.split_search.enumerate_split_candidates` filled next
to ``expected_flips`` until nothing in the trainers read it: the
normalized distance from each candidate threshold to the nearest sample of
the node.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from oracles.legacy_split_search import select_rows
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.mltrees.cart import GINI_TIE_TOLERANCE
from repro.mltrees.split_search import CandidateTable, SplitCandidate, class_histogram
from repro.mltrees.tree import LEAF, DecisionTree, _from_table


@dataclass(frozen=True)
class SplitCostSets:
    """Partition of the tolerance set ``S`` by induced ADC hardware cost."""

    zero_cost: CandidateTable
    medium_cost: CandidateTable
    high_cost: CandidateTable


def partition_by_cost(
    candidates: CandidateTable, placed: set[tuple[int, int]]
) -> SplitCostSets:
    """Split ``candidates`` into the S_Z / S_M / S_H sets of Algorithm 1.

    ``placed`` holds the ``(feature, threshold_level)`` pairs selected so
    far; their features are the inputs that already have an ADC.
    Membership is tested through dense boolean lookup tables (the feature /
    level universe is tiny: ``n_features x 2**resolution_bits``), so the cost
    per node is one fancy-index gather per set rather than a sort-based
    ``isin``.
    """
    n = len(candidates)
    zero = np.zeros(n, dtype=bool)
    on_known_input = np.zeros(n, dtype=bool)
    if placed and n:
        pair_features = [feature for feature, _ in placed]
        pair_levels = [level for _, level in placed]
        n_features = max(int(candidates.feature.max()), max(pair_features)) + 1
        lookup = np.zeros(
            (n_features, max(int(candidates.threshold_level.max()), max(pair_levels)) + 1),
            dtype=bool,
        )
        lookup[pair_features, pair_levels] = True
        zero = lookup[candidates.feature, candidates.threshold_level]
        known = np.zeros(n_features, dtype=bool)
        known[pair_features] = True
        on_known_input = known[candidates.feature]
    return SplitCostSets(
        select_rows(candidates, zero),
        select_rows(candidates, on_known_input & ~zero),
        select_rows(candidates, ~on_known_input & ~zero),
    )


class PerNodeADCAwareTrainer(ADCAwareTrainer):
    """The ADC-aware trainer grown node by node from a FIFO frontier."""

    def fit(
        self, X_levels: np.ndarray, y: np.ndarray, n_classes: int | None = None
    ) -> DecisionTree:
        """The shared growth loop's FIFO branch.

        Nodes wait on a FIFO frontier and take their id when popped; each
        split is chosen by :meth:`_select_split`, which also sees the
        ``(feature, threshold_level)`` pairs placed so far.  A node appends
        its node-table row when it takes its id and writes the id into its
        parent's row.
        """
        X_levels, y, n_classes, n_levels = self._checked_inputs(X_levels, y, n_classes)
        rng = random.Random(self.seed)
        placed: set[tuple[int, int]] = set()
        rows: list[list[int]] = []
        # (sample indices, depth, parent row, its left (2) or right (3) column)
        frontier = deque([(np.arange(len(y)), 0, None, 0)])
        while frontier:
            indices, depth, parent, side = frontier.popleft()
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
            candidates = self._node_candidates(X_levels, y, indices, n_classes, n_levels)
            if not candidates:
                continue

            split = self._select_split(candidates, placed, rng)
            mask = X_levels[indices, split.feature] >= split.threshold_level
            right_indices = indices[mask]
            left_indices = indices[~mask]
            if left_indices.size == 0 or right_indices.size == 0:
                continue

            row[:2] = split.feature, split.threshold_level
            placed.add((split.feature, split.threshold_level))
            frontier.append((left_indices, depth + 1, row, 2))
            frontier.append((right_indices, depth + 1, row, 3))

        return DecisionTree(
            _from_table(np.array(rows)),
            n_features=X_levels.shape[1],
            n_classes=n_classes,
            resolution_bits=self.resolution_bits,
        )

    def _select_split(
        self,
        candidates: CandidateTable,
        placed: set[tuple[int, int]],
        rng: random.Random,
    ) -> SplitCandidate:
        """Algorithm 1 selection as array reductions over the candidate table.

        Every filter (tolerance set, cost partition, low-power level, score
        ties) preserves the table's (feature, threshold) order and the final
        tie-break draws once over the finalist set.
        """
        scores = self._split_scores(candidates)
        tolerance_set = select_rows(
            candidates, scores <= scores.min() + self.gini_threshold + 1e-15
        )
        sets = partition_by_cost(tolerance_set, placed)

        if sets.zero_cost:
            pool = sets.zero_cost
        else:
            pool = sets.medium_cost if sets.medium_cost else sets.high_cost
            if self.prefer_low_power_levels:
                # Secondary objective: smallest threshold => lowest-power comparator.
                pool = select_rows(pool, pool.threshold_level == pool.threshold_level.min())
        pool_scores = self._split_scores(pool)
        finalists = np.nonzero(pool_scores <= pool_scores.min() + GINI_TIE_TOLERANCE)[0]
        return pool.candidate(rng.choice(finalists.tolist()))


def node_margins(
    X_levels: np.ndarray, indices: np.ndarray, table: CandidateTable, n_levels: int
) -> np.ndarray:
    """The ``margin`` column of a node's candidate ``table``.

    ``margin`` of threshold ``k`` on a feature is the normalized distance
    from ``k`` to the nearest *occupied* level's cell center, found with two
    running extrema over the occupancy mask (no per-threshold scan).  A
    threshold in a dense sample region has a tiny margin and is fragile
    under comparator input offsets.  Valid splits have samples on both
    sides, so every margin of a table row is finite.
    """
    values = X_levels[np.asarray(indices)]
    occupied = np.zeros((X_levels.shape[1], n_levels), dtype=bool)
    occupied[np.arange(X_levels.shape[1])[np.newaxis, :], values] = True
    level_index = np.arange(n_levels, dtype=float)
    # highest occupied level <= l  /  lowest occupied level >= l
    below = np.maximum.accumulate(np.where(occupied, level_index, -np.inf), axis=1)
    above = np.minimum.accumulate(
        np.where(occupied, level_index, np.inf)[:, ::-1], axis=1
    )[:, ::-1]
    thresholds = np.arange(1, n_levels, dtype=float)
    # distance from threshold k to the cell centers of the nearest occupied
    # level strictly below (level <= k - 1) and at-or-above (level >= k)
    margin_below = thresholds[np.newaxis, :] - (below[:, :-1] + 0.5)
    margin_above = (above[:, 1:] + 0.5) - thresholds[np.newaxis, :]
    margin = np.minimum(margin_below, margin_above) / n_levels
    return margin[table.feature, table.threshold_level - 1]


def per_node(trainer: ADCAwareTrainer) -> PerNodeADCAwareTrainer:
    """The per-node trainer with ``trainer``'s settings.

    The old growth loops of :mod:`oracles.legacy_split_search` drive a
    trainer's ``_node_candidates`` / ``_select_split`` hooks, which the
    level-batched trainer does not have.
    """
    oracle = PerNodeADCAwareTrainer.__new__(PerNodeADCAwareTrainer)
    vars(oracle).update(vars(trainer))
    return oracle
