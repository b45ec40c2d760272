"""Export of trained-tree structure for hardware generation.

The co-design flow needs three views of a trained tree:

* the list of comparisons ``(feature, threshold_level)`` -- one per decision
  node -- which sizes the baseline's digital comparators,
* the set of *unique* unary digits required per feature -- which sizes the
  bespoke ADCs,
* the decision paths (root-to-leaf condition lists) -- which become the
  product terms of the two-level label logic of Fig. 2b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mltrees.tree import LEAF, DecisionTree


@dataclass(frozen=True)
class PathCondition:
    """One condition along a decision path.

    ``is_ge`` is True for the right-branch condition ``x[feature] >= level``
    and False for the complementary left-branch condition ``x[feature] < level``.
    """

    feature: int
    level: int
    is_ge: bool

    def __str__(self) -> str:
        op = ">=" if self.is_ge else "<"
        return f"I{self.feature} {op} {self.level}"


@dataclass(frozen=True)
class DecisionPath:
    """A root-to-leaf path: the conjunction of conditions implying a class."""

    conditions: tuple[PathCondition, ...]
    prediction: int
    n_samples: int


@dataclass(frozen=True)
class ComparisonSummary:
    """Aggregate comparison statistics of a trained tree.

    Attributes
    ----------
    n_decision_nodes:
        Number of comparison nodes (``#Comp.`` in Table I for the baseline).
    n_unique_pairs:
        Number of distinct ``(feature, threshold)`` pairs (the number of
        comparators the *bespoke ADCs* must provide in total).
    used_features:
        Features referenced by at least one split (``#Inputs`` in Table I).
    required_levels:
        Per used feature, the sorted unary-digit levels required.
    """

    n_decision_nodes: int
    n_unique_pairs: int
    used_features: tuple[int, ...]
    required_levels: dict[int, tuple[int, ...]]


def tree_to_paths(tree: DecisionTree) -> list[DecisionPath]:
    """Extract every root-to-leaf decision path of ``tree``, in pre-order."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    prediction, n_samples = tree.prediction.tolist(), tree.n_samples.tolist()
    # One condition object per branch, shared by every path through it.
    condition = {
        (node, took_right): PathCondition(feature[node], threshold[node], is_ge=took_right)
        for node in np.flatnonzero(tree.feature != LEAF).tolist()
        for took_right in (False, True)
    }
    return [
        DecisionPath(
            conditions=tuple(map(condition.__getitem__, conditions)),
            prediction=prediction[leaf],
            n_samples=n_samples[leaf],
        )
        for leaf, conditions in tree.paths()
    ]


def comparisons_summary(tree: DecisionTree) -> ComparisonSummary:
    """Aggregate comparison statistics used by the hardware generators."""
    comparisons = tree.comparisons()
    return ComparisonSummary(
        n_decision_nodes=len(comparisons),
        n_unique_pairs=len(set(comparisons)),
        used_features=tuple(tree.used_features()),
        required_levels=tree.required_levels(),
    )
