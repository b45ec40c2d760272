"""ADC-aware decision-tree training (Algorithm 1, Section III-C).

Algorithm 1 is greedy Gini training with one changed step, so
:class:`ADCAwareTrainer` is :class:`~repro.mltrees.cart.CARTTrainer` -- same
hyperparameters, validation and split score -- with a hardware-aware split
choice, grown breadth-first one tree level at a time.  With ``G`` the best
Gini score at the node and ``tau`` the tolerance hyperparameter, the
candidate set ``S = {(Ii, C) | Gini(Ii, C) <= G + tau}`` is partitioned by the
ADC hardware a selection would add:

* ``S_Z`` (zero cost): the pair has already been selected at another node --
  the comparator exists, only wiring is added;
* ``S_M`` (medium cost): the input already has an ADC, but a new reference
  level (one extra comparator) is required;
* ``S_H`` (high cost): the input is used for the first time -- a whole new
  ADC channel (ladder + one comparator) is required.

The first non-empty set in that order wins.  Inside ``S_M`` / ``S_H`` the pair
with the *smallest threshold* is preferred, because lower reference levels
yield lower comparator power (Fig. 3); remaining ties are resolved by the
best Gini score and then uniformly at random, as in the paper.

``tau = 0`` leaves accuracy untouched (only equivalent-quality splits are
reordered); larger ``tau`` trades accuracy for further hardware reduction.
"""

from __future__ import annotations

import random

import numpy as np

from repro.mltrees.cart import GINI_TIE_TOLERANCE, CARTTrainer
from repro.mltrees.split_search import NodeBatch, class_histogram, split_node_batch
from repro.mltrees.tree import LEAF, DecisionTree, _from_table


class ADCAwareTrainer(CARTTrainer):
    """Greedy Gini trainer with the ADC-aware split selection of Algorithm 1.

    Input validation and the split score (with its offset-aware penalty)
    are :class:`~repro.mltrees.cart.CARTTrainer`'s; see it for
    ``max_depth``, ``resolution_bits``, ``min_samples_leaf``,
    ``min_samples_split``, ``seed``, ``training_sigma`` and
    ``robustness_weight``.  The tree grows breadth-first, so that the set
    of already placed ``(feature, threshold)`` pairs -- which defines the
    cost of future selections -- evolves in the node order of Algorithm 1,
    and node ids are breadth-first.

    It grows one level at a time: one
    :func:`~repro.mltrees.split_search.split_node_batch` call enumerates
    every splittable node of a depth, then each node of the level, in id
    order, chooses its split, draws its tie-break and places its
    comparator.  This gives the trees a *prefix property*: the tree grown
    at ``max_depth=d`` equals the tree grown at any larger ``max_depth``
    (same knobs) cut at ``d``
    (:meth:`~repro.mltrees.tree.DecisionTree.truncated`), because every
    level shallower than ``d`` -- its nodes, ids, random draws and placed
    pairs -- is fixed before level ``d`` is reached, and a depth-``d`` node
    of the shallower tree is a leaf that draws nothing.  The sweep
    therefore trains one tree per depth family
    (:func:`~repro.core.design.evaluate_family`).

    Parameters
    ----------
    gini_threshold:
        The tolerance ``tau`` (the paper sweeps 0..0.03 in steps of 0.005).
    prefer_low_power_levels:
        Secondary objective of Algorithm 1: among equally costly new
        comparators, prefer the smallest threshold (lowest-power reference
        level).  Disabling it is the ablation of Section III-C's power
        optimization -- the comparator *count* is still minimized but not the
        position of the retained levels.
    """

    def __init__(
        self,
        max_depth: int = 8,
        gini_threshold: float = 0.0,
        resolution_bits: int = 4,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        seed: int = 0,
        prefer_low_power_levels: bool = True,
        training_sigma: float = 0.0,
        robustness_weight: float = 1.0,
    ):
        super().__init__(
            max_depth=max_depth,
            resolution_bits=resolution_bits,
            min_samples_leaf=min_samples_leaf,
            min_samples_split=min_samples_split,
            seed=seed,
            training_sigma=training_sigma,
            robustness_weight=robustness_weight,
        )
        if gini_threshold < 0:
            raise ValueError("the Gini tolerance tau must be >= 0")
        self.gini_threshold = gini_threshold
        self.prefer_low_power_levels = prefer_low_power_levels

    def fit(
        self, X_levels: np.ndarray, y: np.ndarray, n_classes: int | None = None
    ) -> DecisionTree:
        """Train an ADC-aware tree on quantized features, one level at a time.

        Each level appends one block of node-table rows.  A node is a leaf
        at ``max_depth``, when pure, below ``min_samples_split`` samples or
        without a valid split; a split's children take its left/right class
        counts, and ``node_of`` maps each sample still in play to its node
        of the level.

        Defined in this class body rather than inherited, so per-class call
        tracing (``vars(cls)["fit"]``) counts ADC-aware fits apart from CART
        fits; it must not call ``CARTTrainer.fit``.
        """
        X_levels, y, n_classes, n_levels = self._checked_inputs(X_levels, y, n_classes)
        rng = random.Random(self.seed)
        placed = np.zeros((X_levels.shape[1], n_levels), dtype=bool)
        known = np.zeros(X_levels.shape[1], dtype=bool)
        flip_sigma = self.training_sigma if self.offset_aware else None
        samples = np.arange(len(y))
        node_of = np.zeros(len(y), dtype=np.int64)
        counts = class_histogram(y, n_classes)[np.newaxis, :]
        levels: list[np.ndarray] = []
        first_id = 0
        for depth in range(self.max_depth + 1):
            n_nodes = len(counts)
            ids = first_id + np.arange(n_nodes)
            n_samples = counts.sum(axis=1)
            # node-table rows: feature, threshold, left, right, prediction,
            # n_samples, node_depth, then the class counts
            table = np.column_stack([
                np.full(n_nodes, LEAF), np.zeros(n_nodes, dtype=np.int64), ids, ids,
                counts.argmax(axis=1), n_samples, np.full(n_nodes, depth), counts,
            ])
            levels.append(table)
            first_id += n_nodes
            open_nodes = np.flatnonzero(
                (np.count_nonzero(counts, axis=1) > 1) & (n_samples >= self.min_samples_split)
            )
            if depth == self.max_depth or open_nodes.size == 0:
                break

            # one batch: the samples of the open nodes, renumbered 0..n_open-1
            slot = np.full(n_nodes, -1)
            slot[open_nodes] = np.arange(open_nodes.size)
            in_open = slot[node_of] >= 0
            samples, node_of = samples[in_open], slot[node_of[in_open]]
            batch = split_node_batch(
                X_levels[samples], y[samples], node_of, open_nodes.size,
                n_classes, n_levels, self.min_samples_leaf, flip_sigma,
            )
            chosen = self._choose_splits(batch, placed, known, rng)

            split = chosen >= 0
            rows = chosen[split]
            left_ids = first_id + 2 * np.arange(rows.size)
            table[open_nodes[split], :4] = np.column_stack(
                [batch.feature[rows], batch.threshold_level[rows], left_ids, left_ids + 1]
            )
            # children, in id order: each split node's left then right child
            child = np.full(open_nodes.size, -1)
            child[split] = 2 * np.arange(rows.size)
            in_split = child[node_of] >= 0
            samples, node_of = samples[in_split], node_of[in_split]
            row_of = chosen[node_of]
            node_of = child[node_of] + (
                X_levels[samples, batch.feature[row_of]] >= batch.threshold_level[row_of]
            )
            counts = np.stack(
                [batch.left_counts[rows], batch.right_counts[rows]], axis=1
            ).reshape(-1, n_classes)

        return DecisionTree(
            _from_table(np.concatenate(levels)),
            n_features=X_levels.shape[1],
            n_classes=n_classes,
            resolution_bits=self.resolution_bits,
        )

    def _choose_splits(
        self,
        batch: NodeBatch,
        placed: np.ndarray,
        known: np.ndarray,
        rng: random.Random,
    ) -> np.ndarray:
        """Algorithm 1's split choice for every node of a level, in id order.

        Returns the chosen row of ``batch`` per node (``-1``: no valid
        split).  ``placed[feature, level]`` marks the pairs selected so far
        and ``known[feature]`` the inputs that already have an ADC; each
        placed split updates both before the next node chooses.  Every
        filter keeps the rows in ``(feature, threshold)`` order, and the
        finalists share one ``rng.choice``.  The score is the penalized one
        when the expected-flip penalty is active.
        """
        bounds, scores = batch.bounds, self._split_scores(batch)
        sizes = np.diff(bounds)
        nonempty = np.flatnonzero(sizes)
        best = np.repeat(np.minimum.reduceat(scores, bounds[nonempty]), sizes[nonempty])
        tolerance = np.flatnonzero(scores <= best + self.gini_threshold + 1e-15)
        tolerance_bounds = np.searchsorted(tolerance, bounds)
        feature, level = batch.feature, batch.threshold_level
        chosen = np.full(len(bounds) - 1, -1)
        for i in nonempty.tolist():
            pool = tolerance[tolerance_bounds[i]:tolerance_bounds[i + 1]]
            if pool.size > 1:
                zero = placed[feature[pool], level[pool]]
                if zero.any():
                    pool = pool[zero]
                else:
                    on_known = known[feature[pool]]
                    if on_known.any():
                        pool = pool[on_known]
                    if self.prefer_low_power_levels:
                        # smallest threshold => lowest-power comparator
                        pool = pool[level[pool] == level[pool].min()]
                pool_scores = scores[pool]
                pool = pool[pool_scores <= pool_scores.min() + GINI_TIE_TOLERANCE]
            row = int(pool[rng.choice(range(pool.size))])
            chosen[i] = row
            placed[feature[row], level[row]] = True
            known[feature[row]] = True
        return chosen
