"""Reference implementations of the Monte-Carlo offset path.

:func:`_predict_with_offsets_scalar` is the pre-vectorization
implementation of :func:`repro.core.variation._predict_with_offsets`: one
dict-based digit assignment per sample, evaluated through the scalar
:func:`oracles.unary_scalar.predict_from_assignment`.

:func:`simulate_per_trial` is :func:`repro.core.variation.simulate_offset_variation`
as it was before the translation memo: a fresh translation per call, one
offset row drawn per trial and one ``accuracy_score`` per trial.
"""

from __future__ import annotations

import numpy as np

from oracles.unary_scalar import predict_from_assignment
from repro.core.unary_tree import UnaryDecisionTree
from repro.core.variation import ComparatorOffsetModel, _predict_with_offsets
from repro.mltrees.evaluation import accuracy_score
from repro.mltrees.tree import DecisionTree


def _predict_with_offsets_scalar(
    unary: UnaryDecisionTree,
    X: np.ndarray,
    offsets: dict[tuple[int, int], float],
    vdd: float,
) -> np.ndarray:
    """Reference implementation: the pre-vectorization per-sample loop.

    One trial's offsets as a ``{(feature, level): volts}`` dict, one
    dict-based digit assignment per sample.  Kept verbatim as the oracle the
    scalar-vs-batch equivalence tests and the throughput benchmark compare
    against; no production path uses it.
    """
    n_levels = 2 ** unary.resolution_bits
    predictions = np.empty(len(X), dtype=np.int64)
    for row_index, row in enumerate(X):
        assignment: dict[str, bool] = {}
        for feature, levels in unary.required_digits.items():
            value = float(np.clip(row[feature], 0.0, 1.0))
            for level in levels:
                threshold = level / n_levels + offsets[(feature, level)] / vdd
                assignment[f"I{feature}_u{level}"] = value >= threshold
        predictions[row_index] = predict_from_assignment(unary, assignment)
    return predictions


def simulate_per_trial(
    tree: DecisionTree,
    X: np.ndarray,
    y: np.ndarray,
    sigma_v: float,
    n_trials: int,
    vdd: float,
    seed: int = 0,
) -> tuple[float, tuple[float, ...]]:
    """``(nominal accuracy, per-trial accuracies)``, one trial at a time."""
    unary = UnaryDecisionTree(tree)
    X, y = np.asarray(X, dtype=float), np.asarray(y)
    nominal = accuracy_score(y, unary.predict(X))
    if not unary.comparators:
        return nominal, (nominal,) * n_trials
    model = ComparatorOffsetModel(sigma_v=sigma_v)
    rng = np.random.default_rng(seed)
    offsets = np.stack([model.sample(rng, len(unary.comparators)) for _ in range(n_trials)])
    predictions = _predict_with_offsets(unary, X, offsets, vdd)
    return nominal, tuple(accuracy_score(y, row) for row in predictions)
