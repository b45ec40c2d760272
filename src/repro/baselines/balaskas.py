"""Baseline [7]: approximate bespoke decision trees via precision scaling (Balaskas et al.).

[7] approximates bespoke decision trees for tiny printed circuits by reducing
the precision of individual inputs (each comparison then needs fewer bits and
each input a smaller conventional ADC) and, when the approximation costs too
much accuracy, by using deeper trees to win it back.  The paper compares its
co-design against [7] under the same <=1 % accuracy-loss constraint
(Table II) and notes that for some benchmarks the deeper compensating trees
make [7] *larger* than the exact baseline [2].

The re-implementation follows that published description:

1. candidate trees are trained at the reference depth and slightly deeper;
2. per-input precision is reduced greedily (4 -> 3 -> 2 -> 1 bits) as long as
   the approximated tree stays within the accuracy-loss budget;
3. the accepted design is the feasible candidate with the lowest total power,
   implemented with truncated-threshold comparators and, per input, the
   smallest conventional flash ADC of the retained precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adc.frontend import ConventionalFrontEnd
from repro.circuits.area_power import estimate_netlist
from repro.core.metrics import HardwareReport
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import accuracy_score
from repro.mltrees.tree import LEAF, DecisionTree
from repro.baselines.mubarik import build_comparator_tree_netlist
from repro.pdk.egfet import EGFETTechnology, default_technology


def approximate_tree(tree: DecisionTree, per_feature_bits: dict[int, int]) -> DecisionTree:
    """Snap every threshold of ``tree`` onto the coarser grid of its feature.

    Reducing input ``f`` to ``b`` bits keeps only its ``b`` most significant
    bits, so a full-resolution threshold ``k`` becomes
    ``max(k >> (R - b), 1) << (R - b)`` -- the same truncation the hardware
    comparator applies in :func:`build_comparator_tree_netlist`.  One
    transform of the ``threshold`` array; the other node arrays are shared.
    """
    resolution = tree.resolution_bits
    shift_of = np.zeros(tree.n_features, dtype=np.int64)
    for feature, bits in per_feature_bits.items():
        if 0 <= feature < tree.n_features:
            shift_of[feature] = resolution - min(max(int(bits), 1), resolution)
    shift = shift_of[tree.feature]  # leaves (feature -1) are masked below
    return tree.with_thresholds(np.where(
        tree.feature != LEAF,
        np.maximum(tree.threshold >> shift, 1) << shift,
        tree.threshold,
    ))


@dataclass
class BalaskasApproximateDesign:
    """A fitted approximate design: tree, per-input precision and hardware."""

    tree: DecisionTree
    per_feature_bits: dict[int, int]
    accuracy: float
    depth: int
    technology: EGFETTechnology = field(default_factory=default_technology)
    name: str = "approximate[7]"
    _hardware: HardwareReport | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def frontend(self) -> ConventionalFrontEnd:
        """Per-input smallest suitable conventional ADCs plus shared encoder."""
        return ConventionalFrontEnd(
            feature_indices=self.tree.used_features(),
            resolution_bits=self.tree.resolution_bits,
            technology=self.technology,
            per_input_resolution=self.per_feature_bits,
        )

    def hardware_report(self) -> HardwareReport:
        """Combined ADC + digital hardware report, synthesized on first use."""
        if self._hardware is None:
            self._hardware = self._build_hardware_report()
        return self._hardware

    def _build_hardware_report(self) -> HardwareReport:
        netlist = build_comparator_tree_netlist(
            self.tree, name=f"{self.name}_digital"
        )
        digital = estimate_netlist(netlist, self.technology)
        frontend = self.frontend()
        return HardwareReport(
            name=self.name,
            adc_area_mm2=frontend.area_mm2,
            adc_power_uw=frontend.power_uw,
            digital_area_mm2=digital.area_mm2,
            digital_power_uw=digital.power_uw,
            n_inputs=frontend.n_channels,
            n_tree_comparators=self.tree.n_decision_nodes,
            n_adc_comparators=frontend.n_comparators,
        )


def _greedy_precision_scaling(
    tree: DecisionTree,
    X_test_levels: np.ndarray,
    y_test: np.ndarray,
    accuracy_floor: float,
    resolution_bits: int,
) -> tuple[dict[int, int], float]:
    """Greedily reduce per-input precision while staying above ``accuracy_floor``.

    Returns the accepted per-feature bit widths and the accuracy of the final
    approximated tree.
    """
    bits = {feature: resolution_bits for feature in tree.used_features()}
    accuracy = accuracy_score(
        y_test, approximate_tree(tree, bits).predict_levels(X_test_levels)
    )
    improved = True
    while improved:
        improved = False
        for feature in sorted(bits):
            if bits[feature] <= 1:
                continue
            trial = dict(bits)
            trial[feature] = bits[feature] - 1
            trial_accuracy = accuracy_score(
                y_test, approximate_tree(tree, trial).predict_levels(X_test_levels)
            )
            if trial_accuracy >= accuracy_floor:
                bits = trial
                accuracy = trial_accuracy
                improved = True
    return bits, accuracy


def fit_balaskas_design(
    X_train_levels: np.ndarray,
    y_train: np.ndarray,
    X_test_levels: np.ndarray,
    y_test: np.ndarray,
    n_classes: int,
    reference_accuracy: float,
    reference_depth: int,
    max_accuracy_loss: float = 0.01,
    resolution_bits: int = 4,
    extra_depth: int = 2,
    max_depth: int = 10,
    technology: EGFETTechnology | None = None,
    seed: int = 0,
) -> BalaskasApproximateDesign:
    """Fit the approximate baseline [7] under an accuracy-loss budget.

    Parameters
    ----------
    X_train_levels, y_train, X_test_levels, y_test:
        Quantized train/test partitions.
    n_classes:
        Number of classes.
    reference_accuracy, reference_depth:
        Accuracy and depth of the exact baseline [2]; the accuracy-loss
        budget is measured against ``reference_accuracy`` and candidate trees
        may be up to ``extra_depth`` levels deeper than ``reference_depth``.
    max_accuracy_loss:
        Allowed absolute accuracy drop (e.g. 0.01 for the 1 % of Table II).
    resolution_bits:
        Full input precision (4 bits in the paper).
    technology:
        EGFET technology used for costing the candidates.
    seed:
        Training seed.
    """
    technology = technology if technology is not None else default_technology()
    accuracy_floor = reference_accuracy - max_accuracy_loss

    candidate_depths = range(
        max(1, reference_depth),
        min(max_depth, reference_depth + extra_depth) + 1,
    )
    best: BalaskasApproximateDesign | None = None
    best_power = float("inf")
    fallback: BalaskasApproximateDesign | None = None
    fallback_accuracy = -1.0

    for depth in candidate_depths:
        trainer = CARTTrainer(
            max_depth=depth, resolution_bits=resolution_bits, seed=seed
        )
        tree = trainer.fit(X_train_levels, y_train, n_classes)
        exact_accuracy = accuracy_score(y_test, tree.predict_levels(X_test_levels))

        bits, accuracy = _greedy_precision_scaling(
            tree, X_test_levels, y_test, accuracy_floor, resolution_bits
        )
        design = BalaskasApproximateDesign(
            tree=approximate_tree(tree, bits),
            per_feature_bits=bits,
            accuracy=accuracy,
            depth=depth,
            technology=technology,
        )
        if accuracy >= accuracy_floor:
            power = design.hardware_report().total_power_uw
            if power < best_power:
                best = design
                best_power = power
        # Track the most accurate candidate as a fallback when nothing meets
        # the budget (mirrors [7] accepting the loss it cannot recover).
        candidate_best_accuracy = max(accuracy, exact_accuracy)
        if candidate_best_accuracy > fallback_accuracy:
            fallback_accuracy = candidate_best_accuracy
            fallback = design if accuracy >= exact_accuracy else BalaskasApproximateDesign(
                tree=tree,
                per_feature_bits={f: resolution_bits for f in tree.used_features()},
                accuracy=exact_accuracy,
                depth=depth,
                technology=technology,
            )

    chosen = best if best is not None else fallback
    assert chosen is not None, "at least one candidate design is always produced"
    return chosen
