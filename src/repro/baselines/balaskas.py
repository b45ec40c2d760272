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
from repro.mltrees.evaluation import PackedSplit
from repro.mltrees.quantize import truncated_threshold
from repro.mltrees.tree import LEAF, DecisionTree
from repro.baselines.mubarik import build_comparator_tree_netlist
from repro.pdk.egfet import EGFETTechnology, default_technology


def approximate_tree(tree: DecisionTree, per_feature_bits: dict[int, int]) -> DecisionTree:
    """Snap every threshold of ``tree`` onto the coarser grid of its feature.

    Reducing input ``f`` to ``b`` bits keeps only its ``b`` most significant
    bits (:func:`~repro.mltrees.quantize.truncated_threshold`), the same
    truncation the hardware comparator applies in
    :func:`build_comparator_tree_netlist`.  One transform of the
    ``threshold`` array; the other node arrays are shared.
    """
    resolution = tree.resolution_bits
    return tree.with_thresholds([
        level if feature == LEAF or feature not in per_feature_bits
        else truncated_threshold(level, per_feature_bits[feature], resolution)
        for feature, level in zip(tree.feature.tolist(), tree.threshold.tolist())
    ])


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
    test_rows: PackedSplit,
    accuracy_floor: float,
    resolution_bits: int,
    accuracy: float,
) -> tuple[dict[int, int], float]:
    """Greedily reduce per-input precision while staying above ``accuracy_floor``.

    ``accuracy`` is the full-precision tree's test accuracy, the search's
    starting point: at full precision :func:`approximate_tree` keeps every
    threshold (split levels are >= 1), so it is not scored again.  A trial
    narrows one input by a bit, which moves only the nodes splitting that
    input: each takes the packed rows of its truncated threshold, and the
    trial is one walk of ``test_rows`` with no approximated tree built.
    Returns the accepted per-feature bit widths and the accuracy of the
    final approximated tree.
    """
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    walk = (feature, tree.left.tolist(), tree.right.tolist(), tree.prediction.tolist())
    digits = test_rows.digits(feature, threshold)
    nodes_of: dict[int, list[int]] = {}
    for node, split in enumerate(feature):
        if split != LEAF:
            nodes_of.setdefault(split, []).append(node)
    bits = dict.fromkeys(sorted(nodes_of), resolution_bits)
    improved = True
    while improved:
        improved = False
        for split in bits:
            narrower = bits[split] - 1
            if narrower < 1:
                continue
            trial = list(digits)
            for node in nodes_of[split]:
                trial[node] = test_rows.rows_at_least(split, truncated_threshold(
                    threshold[node], narrower, tree.resolution_bits
                ))
            trial_accuracy = test_rows.score(*walk, trial)
            if trial_accuracy >= accuracy_floor:
                bits[split], digits, accuracy = narrower, trial, trial_accuracy
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
    test_rows: PackedSplit | None = None,
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
    test_rows:
        ``X_test_levels`` and ``y_test`` packed (:class:`PackedSplit`) when
        the caller holds them; packed here otherwise.  Every candidate and
        every precision trial is scored on it.
    """
    technology = technology if technology is not None else default_technology()
    if test_rows is None:
        test_rows = PackedSplit(X_test_levels, y_test)
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
        exact_accuracy = test_rows.accuracy(tree)

        bits, accuracy = _greedy_precision_scaling(
            tree, test_rows, accuracy_floor, resolution_bits, exact_accuracy,
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
