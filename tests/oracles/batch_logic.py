"""The ndarray label-logic evaluator, kept as the kernel's reference.

:class:`_BatchLabelLogic` evaluates a unary tree's minimized
sum-of-products over a whole digit matrix with boolean ndarray gathers and
reductions -- one ``digits[:, columns]`` gather per cube.  It was the batch
engine of :class:`~repro.core.unary_tree.UnaryDecisionTree` before the
packed-uint64 :class:`~repro.core.bitkernel.CompiledTreeKernel` took over
every digit matrix.  It is an independent reference: it shares no
evaluation code with the kernel, so the kernel equivalence tests and the
``inference/bitparallel_kernel`` benchmark row compare the kernel against
it.  No production path uses it.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.circuits.two_level import SumOfProducts


def batch_oracle(unary) -> "_BatchLabelLogic":
    """The reference evaluator of ``unary``'s label logic."""
    return _BatchLabelLogic(
        comparators=unary.comparators,
        digit_index={name: i for i, name in enumerate(unary.digit_variables())},
        label_logic=unary.label_logic,
        n_classes=unary.n_classes,
    )


class _BatchLabelLogic:
    """Label logic compiled into index arrays for whole-matrix evaluation.

    Each product term of each label's sum-of-products becomes two column
    index arrays (positive / negated literals) into the digit matrix, so one
    term evaluates as ``digits[:, pos].all(1) & (~digits[:, neg]).all(1)``
    over every sample simultaneously and a label fires where any of its
    terms does.  The winner per row is the lowest firing label -- identical
    to the scalar :meth:`UnaryDecisionTree.predict_from_assignment` rule.
    """

    def __init__(
        self,
        comparators: tuple[tuple[int, int], ...],
        digit_index: dict[str, int],
        label_logic: Mapping[int, SumOfProducts],
        n_classes: int,
    ):
        self.features = np.array([feature for feature, _ in comparators], dtype=np.intp)
        self.levels = np.array([level for _, level in comparators], dtype=np.int64)
        self.n_classes = n_classes
        #: per label, per term: (positive column indices, negated column indices)
        self.terms: list[list[tuple[np.ndarray, np.ndarray]]] = []
        for label in range(n_classes):
            compiled: list[tuple[np.ndarray, np.ndarray]] = []
            for term in label_logic[label].terms:
                positive = [digit_index[lit.name] for lit in term if lit.positive]
                negated = [digit_index[lit.name] for lit in term if not lit.positive]
                compiled.append(
                    (
                        np.array(sorted(positive), dtype=np.intp),
                        np.array(sorted(negated), dtype=np.intp),
                    )
                )
            self.terms.append(compiled)

    def digits_from_levels(self, X_levels: np.ndarray) -> np.ndarray:
        """Broadcast compare: digit ``(f, k)`` is ``X_levels[:, f] >= k``."""
        return X_levels[:, self.features] >= self.levels[np.newaxis, :]

    def fired_matrix(self, digits: np.ndarray) -> np.ndarray:
        """``(n_samples, n_classes)`` boolean matrix of firing label functions."""
        n_samples = digits.shape[0]
        fired = np.zeros((n_samples, self.n_classes), dtype=bool)
        for label, compiled in enumerate(self.terms):
            column = fired[:, label]
            for positive, negated in compiled:
                term_value = digits[:, positive].all(axis=1)
                if negated.size:
                    term_value &= ~digits[:, negated].any(axis=1)
                column |= term_value
        return fired

    def predict(self, digits: np.ndarray) -> np.ndarray:
        """Lowest firing label per row; raises when a row fires none."""
        fired = self.fired_matrix(digits)
        if not fired.any(axis=1).all():
            raise ValueError(
                "no label function fired; the digit assignment is inconsistent "
                "with a thermometer code"
            )
        return np.argmax(fired, axis=1).astype(np.int64)
