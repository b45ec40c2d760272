"""Decision-tree substrate: data structures, Gini/CART training, quantization.

The paper's classifiers are axis-aligned decision trees trained with the Gini
index on inputs normalized to ``[0, 1]`` and quantized to 4 bits.  Everything
is implemented from scratch (no scikit-learn) so the ADC-aware trainer of the
co-design core can reuse the same split-scoring machinery:

* :mod:`repro.mltrees.tree` -- tree node / tree containers and prediction,
* :mod:`repro.mltrees.gini` -- Gini impurity utilities,
* :mod:`repro.mltrees.split_search` -- vectorized enumeration of candidate
  splits (feature, quantized threshold) with their Gini scores,
* :mod:`repro.mltrees.cart` -- the conventional (ADC-unaware) greedy trainer
  used by the baseline [2], whose growth loop every trainer shares,
* :mod:`repro.mltrees.quantize` -- fixed-point feature/threshold quantization,
* :mod:`repro.mltrees.evaluation` -- accuracy, stratified splitting,
* :mod:`repro.mltrees.export` -- comparison lists, decision paths and
  per-feature required unary digits extracted from a trained tree.
"""

from repro.mltrees.tree import DecisionTree, TreeNode
from repro.mltrees.gini import gini_impurity, weighted_gini
from repro.mltrees.split_search import (
    CandidateTable,
    SplitCandidate,
    enumerate_split_candidates,
)
from repro.mltrees.cart import CARTTrainer, fit_baseline_tree
from repro.mltrees.quantize import quantize_dataset, level_to_value
from repro.mltrees.evaluation import accuracy_score, confusion_matrix, train_test_split
from repro.mltrees.export import (
    ComparisonSummary,
    DecisionPath,
    comparisons_summary,
    tree_to_paths,
)
from repro.mltrees.render import render_tree_text, tree_to_dot

__all__ = [
    "DecisionTree",
    "TreeNode",
    "gini_impurity",
    "weighted_gini",
    "CandidateTable",
    "SplitCandidate",
    "enumerate_split_candidates",
    "CARTTrainer",
    "fit_baseline_tree",
    "quantize_dataset",
    "level_to_value",
    "accuracy_score",
    "confusion_matrix",
    "train_test_split",
    "ComparisonSummary",
    "DecisionPath",
    "comparisons_summary",
    "tree_to_paths",
    "render_tree_text",
    "tree_to_dot",
]
