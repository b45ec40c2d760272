"""ADC-aware decision-tree training (Algorithm 1, Section III-C).

Algorithm 1 is greedy Gini training with one changed step, so
:class:`ADCAwareTrainer` is :class:`~repro.mltrees.cart.CARTTrainer` -- same
growth loop, validation and split score -- with a hardware-aware split
choice and a breadth-first frontier.  With ``G`` the best
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
from dataclasses import dataclass

import numpy as np

from repro.mltrees.cart import GINI_TIE_TOLERANCE, CARTTrainer
from repro.mltrees.split_search import CandidateTable, SplitCandidate
from repro.mltrees.tree import DecisionTree


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
        candidates.select(zero),
        candidates.select(on_known_input & ~zero),
        candidates.select(~on_known_input & ~zero),
    )


class ADCAwareTrainer(CARTTrainer):
    """Greedy Gini trainer with the ADC-aware split selection of Algorithm 1.

    Growth, input validation and the split score (with its offset-aware
    penalty) are :class:`~repro.mltrees.cart.CARTTrainer`'s; see it for
    ``max_depth``, ``resolution_bits``, ``min_samples_leaf``,
    ``min_samples_split``, ``seed``, ``training_sigma`` and
    ``robustness_weight``.  This class changes how a node picks its split
    (:meth:`_select_split`) and grows the tree breadth-first, so that the
    set of already placed ``(feature, threshold)`` pairs -- which defines
    the cost of future selections -- evolves in the node order of
    Algorithm 1.  Node ids are therefore breadth-first.

    Breadth-first growth gives the trees a *prefix property*: the tree
    grown at ``max_depth=d`` equals the tree grown at any larger
    ``max_depth`` (same knobs) cut at ``d``
    (:meth:`~repro.mltrees.tree.DecisionTree.truncated`).  The FIFO frontier
    pops, numbers and splits every node shallower than ``d`` -- drawing its
    tie-break and placing its comparator -- before it pops any depth-``d``
    node, so the deeper growth only begins once the shallower tree's nodes,
    ids, random draws and placed pairs are all fixed; and a depth-``d`` node
    of the shallower tree is a leaf that draws nothing.  The sweep therefore
    trains one tree per depth family
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

    _breadth_first = True

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
        """Train an ADC-aware tree on quantized features (breadth-first).

        Defined in this class body rather than inherited, so per-class call
        tracing (``vars(cls)["fit"]``) counts ADC-aware fits apart from CART
        fits; it must not call ``CARTTrainer.fit``.
        """
        return self._grow(X_levels, y, n_classes)

    def _select_split(
        self,
        candidates: CandidateTable,
        placed: set[tuple[int, int]],
        rng: random.Random,
    ) -> SplitCandidate:
        """Algorithm 1 selection as array reductions over the candidate table.

        Every filter (tolerance set, cost partition, low-power level, score
        ties) preserves the table's (feature, threshold) order and the final
        tie-break draws once over the finalist set, so the RNG stream -- and
        therefore the grown tree -- is bit-identical to the historical
        object-list implementation whenever the expected-flip penalty is
        inactive.  When it is active, the same structure applies to the
        penalized score ``gini + robustness_weight * expected_flips``: the
        tolerance set and every tie-break then prefer thresholds in sparse
        sample regions.
        """
        scores = self._split_scores(candidates)
        tolerance_set = candidates.select(
            scores <= scores.min() + self.gini_threshold + 1e-15
        )
        sets = partition_by_cost(tolerance_set, placed)

        if sets.zero_cost:
            pool = sets.zero_cost
        else:
            pool = sets.medium_cost if sets.medium_cost else sets.high_cost
            if self.prefer_low_power_levels:
                # Secondary objective: smallest threshold => lowest-power comparator.
                pool = pool.select(pool.threshold_level == pool.threshold_level.min())
        pool_scores = self._split_scores(pool)
        finalists = np.nonzero(pool_scores <= pool_scores.min() + GINI_TIE_TOLERANCE)[0]
        return pool.candidate(rng.choice(finalists.tolist()))
