"""The per-sample Monte-Carlo loop, kept as the reference of the offset path.

:func:`_predict_with_offsets_scalar` is the pre-vectorization
implementation of :func:`repro.core.variation._predict_with_offsets`: one
dict-based digit assignment per sample, evaluated through the scalar
:meth:`~repro.core.unary_tree.UnaryDecisionTree.predict_from_assignment`.
"""

from __future__ import annotations

import numpy as np

from repro.core.unary_tree import UnaryDecisionTree


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
        predictions[row_index] = unary.predict_from_assignment(assignment)
    return predictions
