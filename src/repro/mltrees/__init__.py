"""Decision-tree substrate: data structures, Gini/CART training, quantization.

The paper's classifiers are axis-aligned decision trees trained with the Gini
index on inputs normalized to ``[0, 1]`` and quantized to 4 bits.  Everything
is implemented from scratch (no scikit-learn) so the ADC-aware trainer of the
co-design core can reuse the same split-scoring machinery:

* :mod:`repro.mltrees.tree` -- the node-array tree container and prediction,
* :mod:`repro.mltrees.gini` -- Gini impurity utilities,
* :mod:`repro.mltrees.split_search` -- vectorized enumeration of candidate
  splits (feature, quantized threshold) with their Gini scores,
* :mod:`repro.mltrees.cart` -- the conventional (ADC-unaware) greedy trainer
  used by the baseline [2], subclassed by the ADC-aware trainer,
* :mod:`repro.mltrees.quantize` -- fixed-point feature/threshold quantization,
* :mod:`repro.mltrees.evaluation` -- accuracy, stratified splitting.
"""

from repro._lazy import lazy_exports

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.mltrees.tree": ("DecisionTree",),
    "repro.mltrees.gini": ("gini_impurity", "weighted_gini"),
    "repro.mltrees.split_search": (
        "CandidateTable", "SplitCandidate", "enumerate_split_candidates",
    ),
    "repro.mltrees.cart": ("CARTTrainer", "fit_baseline_tree"),
    "repro.mltrees.quantize": ("quantize_dataset", "level_to_value"),
    "repro.mltrees.evaluation": ("accuracy_score", "confusion_matrix", "train_test_split"),
    "repro.mltrees.render": ("render_tree_text", "tree_to_dot"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
