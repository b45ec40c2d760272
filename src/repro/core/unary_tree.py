"""Parallel unary decision-tree architecture (Section III-A, Fig. 2).

Once the inputs are available as parallel unary digits, every comparison
``x[feature] >= C`` of a bespoke decision tree collapses into reading one
unary digit ``I_feature[k]`` (Eq. (2)), so the whole classifier becomes a
set of two-level AND-OR functions -- one per class label -- over those
digits.  :class:`UnaryDecisionTree` performs that translation for a trained
:class:`~repro.mltrees.tree.DecisionTree`:

* it derives the unary digits each input feature must provide (which is what
  the bespoke ADC generator consumes),
* it builds the minimized sum-of-products label logic,
* it synthesizes the label logic into a gate-level netlist for costing and
  equivalence checking,
* it predicts classes either from raw samples, from quantized levels, or from
  the digit dictionaries produced by a :class:`~repro.adc.frontend.BespokeFrontEnd`.

Every batched prediction goes through one evaluator: the packed-uint64
:class:`~repro.core.bitkernel.CompiledTreeKernel`, compiled from this
tree's own minimized label logic (:attr:`UnaryDecisionTree.kernel`).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

import numpy as np

from repro.adc.thermometer import quantize_array_to_levels
from repro.circuits.area_power import AreaPowerReport, estimate_netlist
from repro.circuits.netlist import Netlist
from repro.circuits.synthesis import synthesize_sop
from repro.circuits.two_level import Literal, SumOfProducts
from repro.core.bitkernel import CompiledTreeKernel
from repro.mltrees.export import tree_to_paths
from repro.mltrees.tree import DecisionTree
from repro.pdk.egfet import EGFETTechnology


def digit_variable(feature: int, level: int) -> str:
    """Canonical variable name of unary digit ``level`` of input ``feature``."""
    return f"I{feature}_u{level}"


class UnaryDecisionTree:
    """A trained decision tree expressed in the parallel unary architecture."""

    def __init__(self, tree: DecisionTree):
        self.tree = tree
        self.resolution_bits = tree.resolution_bits
        self.n_classes = tree.n_classes
        #: per used feature, the sorted unary-digit levels the logic consumes
        self.required_digits: dict[int, tuple[int, ...]] = tree.required_levels()
        self._label_logic = self._build_label_logic()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build_label_logic(self) -> dict[int, SumOfProducts]:
        """Build the minimized two-level AND-OR function of every class label.

        Each root-to-leaf path contributes one product term: the right-branch
        condition ``x >= k`` maps to the positive literal ``I_f[k]`` and the
        left-branch condition ``x < k`` to its complement (Fig. 2b).
        """
        logic: dict[int, SumOfProducts] = {
            label: SumOfProducts() for label in range(self.n_classes)
        }
        for path in tree_to_paths(self.tree):
            term = [
                Literal(digit_variable(cond.feature, cond.level), positive=cond.is_ge)
                for cond in path.conditions
            ]
            logic[path.prediction].add_term(term)
        return {label: sop.minimized() for label, sop in logic.items()}

    @cached_property
    def kernel(self) -> CompiledTreeKernel:
        """The packed-word kernel of this tree's label logic, compiled once."""
        return CompiledTreeKernel(self)

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    @property
    def label_logic(self) -> dict[int, SumOfProducts]:
        """Minimized sum-of-products per class label."""
        return dict(self._label_logic)

    @property
    def used_features(self) -> tuple[int, ...]:
        """Input features that need an ADC channel."""
        return tuple(sorted(self.required_digits))

    @property
    def n_inputs(self) -> int:
        """Number of used input features (``#Inputs``)."""
        return len(self.required_digits)

    @property
    def n_unary_digits(self) -> int:
        """Total number of distinct unary digits consumed by the logic.

        This equals the total number of comparators the bespoke ADC front end
        must retain.
        """
        return sum(len(levels) for levels in self.required_digits.values())

    def digit_variables(self) -> list[str]:
        """All digit variable names, sorted by feature then level."""
        return [
            digit_variable(feature, level)
            for feature in sorted(self.required_digits)
            for level in self.required_digits[feature]
        ]

    @property
    def comparators(self) -> tuple[tuple[int, int], ...]:
        """``(feature, level)`` of every retained comparator, in digit order.

        The order matches :meth:`digit_variables` and is the column order of
        every digit matrix the batch prediction path consumes.
        """
        return tuple(
            (feature, level)
            for feature in sorted(self.required_digits)
            for level in self.required_digits[feature]
        )

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def _digits_from_levels(self, levels) -> dict[str, bool]:
        """Expand quantized levels into the digit-variable assignment."""
        assignment: dict[str, bool] = {}
        for feature, required in self.required_digits.items():
            value = int(levels[feature])
            for level in required:
                assignment[digit_variable(feature, level)] = value >= level
        return assignment

    def predict_one_level(self, levels) -> int:
        """Predict the class of one quantized sample through the unary logic."""
        assignment = self._digits_from_levels(levels)
        return self.predict_from_assignment(assignment)

    def predict_from_assignment(self, assignment: Mapping[str, bool]) -> int:
        """Predict from a digit-variable truth assignment.

        Exactly one label function evaluates true for any assignment that is
        consistent with a thermometer code; if several are true (possible
        only for inconsistent assignments), the lowest label wins, and if
        none is true a ``ValueError`` is raised.
        """
        winners = [
            label
            for label, sop in self._label_logic.items()
            if sop.evaluate(assignment)
        ]
        if not winners:
            raise ValueError(
                "no label function fired; the digit assignment is inconsistent "
                "with a thermometer code"
            )
        return min(winners)

    def predict_from_digits(self, digits: Mapping[int, Mapping[int, int]]) -> int:
        """Predict from the per-feature digit dictionaries of a bespoke front end."""
        assignment = {
            digit_variable(feature, level): bool(bit)
            for feature, per_level in digits.items()
            for level, bit in per_level.items()
        }
        return self.predict_from_assignment(assignment)

    # ------------------------------------------------------------------ #
    # batched prediction
    # ------------------------------------------------------------------ #
    def predict_digit_matrix(self, digits: np.ndarray) -> np.ndarray:
        """Predict classes from an ``(n_samples, n_unary_digits)`` digit matrix.

        Columns follow :attr:`comparators`.  Raises ``ValueError`` when any
        row fires no label function (inconsistent with a thermometer code),
        mirroring :meth:`predict_from_assignment`.
        """
        return self.kernel.predict_digit_matrix(digits)

    def predict_levels(self, X_levels: np.ndarray) -> np.ndarray:
        """Predict classes for a matrix of quantized samples (vectorized)."""
        return self.kernel.predict_levels(X_levels)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict classes for raw normalized samples in ``[0, 1]``."""
        levels = quantize_array_to_levels(np.asarray(X, dtype=float), self.resolution_bits)
        return self.predict_levels(levels)

    def predict_from_digits_batch(
        self, digits: Mapping[int, Mapping[int, np.ndarray]]
    ) -> np.ndarray:
        """Predict from per-feature digit *vectors* of a bespoke front end.

        Batch counterpart of :meth:`predict_from_digits`: every
        ``digits[feature][level]`` holds one value per sample (the output of
        :meth:`~repro.adc.frontend.BespokeFrontEnd.convert_batch`).
        """
        columns = [
            np.asarray(digits[feature][level], dtype=bool)
            for feature, level in self.comparators
        ]
        if not columns:
            raise ValueError("predict_from_digits_batch needs at least one digit vector")
        return self.predict_digit_matrix(np.column_stack(columns))

    # ------------------------------------------------------------------ #
    # hardware
    # ------------------------------------------------------------------ #
    def class_output(self, label: int) -> str:
        """Primary-output net name of a class label."""
        return f"class_{label}"

    def to_netlist(self, name: str = "unary_tree") -> Netlist:
        """Synthesize the label logic into a gate-level netlist.

        Primary inputs are the required unary digits; primary outputs are the
        one-hot class signals.
        """
        netlist = Netlist(name)
        variable_nets = {
            variable: netlist.add_input(variable) for variable in self.digit_variables()
        }
        inverted: dict[str, str] = {}
        for label in range(self.n_classes):
            sop = self._label_logic[label]
            output = synthesize_sop(netlist, sop, variable_nets, inverted)
            target = self.class_output(label)
            netlist.add_gate("BUF", [output], output=target)
            netlist.add_output(target)
        netlist.validate()
        return netlist

    def digital_report(
        self, technology: EGFETTechnology, ppa_backend=None
    ) -> AreaPowerReport:
        """Area/power of the synthesized two-level label logic.

        ``ppa_backend`` selects the costing source (default: the analytic
        cell-count model; see :mod:`repro.circuits.ppa`).
        """
        if ppa_backend is None:
            return estimate_netlist(self.to_netlist(), technology)
        from repro.circuits.ppa import resolve_ppa_backend

        return resolve_ppa_backend(ppa_backend).area_power(
            self.to_netlist(), technology
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UnaryDecisionTree(inputs={self.n_inputs}, "
            f"unary_digits={self.n_unary_digits}, classes={self.n_classes})"
        )

