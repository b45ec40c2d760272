"""Comparison statistics of a trained tree for hardware generation.

The co-design flow needs two views of a trained tree's comparisons:

* the list of comparisons ``(feature, threshold_level)`` -- one per decision
  node -- which sizes the baseline's digital comparators,
* the set of *unique* unary digits required per feature -- which sizes the
  bespoke ADCs.

The decision paths that become the product terms of the two-level label logic
of Fig. 2b are read straight from :meth:`DecisionTree.paths
<repro.mltrees.tree.DecisionTree.paths>` by
:func:`~repro.circuits.two_level.tree_label_logic`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mltrees.tree import DecisionTree


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


def comparisons_summary(tree: DecisionTree) -> ComparisonSummary:
    """Aggregate comparison statistics used by the hardware generators."""
    comparisons = tree.comparisons()
    return ComparisonSummary(
        n_decision_nodes=len(comparisons),
        n_unique_pairs=len(set(comparisons)),
        used_features=tuple(tree.used_features()),
        required_levels=tree.required_levels(),
    )
