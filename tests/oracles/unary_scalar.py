"""The unary tree's scalar predictors, kept as one-sample references.

:class:`~repro.core.unary_tree.UnaryDecisionTree` used to predict one
sample at a time by expanding its quantized levels into a digit-variable
assignment and evaluating every class label's
:class:`~repro.circuits.two_level.SumOfProducts` on it.  Every production
caller moved to the bit-parallel kernel; these functions keep the scalar
rule verbatim, as free functions of a unary tree, for the equivalence tests
and the scalar tier of ``benchmarks/bench_inference_throughput.py``.  No
production path uses them.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.unary_tree import digit_variable


def digits_from_levels(unary, levels) -> dict[str, bool]:
    """Expand quantized levels into the digit-variable assignment."""
    assignment: dict[str, bool] = {}
    for feature, required in unary.required_digits.items():
        value = int(levels[feature])
        for level in required:
            assignment[digit_variable(feature, level)] = value >= level
    return assignment


def predict_one_level(unary, levels) -> int:
    """Predict the class of one quantized sample through the unary logic."""
    assignment = digits_from_levels(unary, levels)
    return predict_from_assignment(unary, assignment)


def predict_from_assignment(unary, assignment: Mapping[str, bool]) -> int:
    """Predict from a digit-variable truth assignment.

    Exactly one label function evaluates true for any assignment that is
    consistent with a thermometer code; if several are true (possible
    only for inconsistent assignments), the lowest label wins, and if
    none is true a ``ValueError`` is raised.
    """
    winners = [
        label
        for label, sop in unary.label_logic.items()
        if sop.evaluate(assignment)
    ]
    if not winners:
        raise ValueError(
            "no label function fired; the digit assignment is inconsistent "
            "with a thermometer code"
        )
    return min(winners)


def predict_from_digits(unary, digits: Mapping[int, Mapping[int, int]]) -> int:
    """Predict from the per-feature digit dictionaries of a bespoke front end."""
    assignment = {
        digit_variable(feature, level): bool(bit)
        for feature, per_level in digits.items()
        for level, bit in per_level.items()
    }
    return predict_from_assignment(unary, assignment)
