"""Baseline [2]: exact fully parallel bespoke decision trees (Mubarik et al.).

The baseline implements every decision node of the trained tree as a digital
comparator against its hardwired threshold, feeds the comparator outputs into
two-level label logic, and digitizes every used input feature with a
conventional flash ADC channel (full comparator bank + ladder) sharing a
single priority encoder.  This is the design whose accuracy and hardware the
paper reports in Table I and against which Figs. 4/5 and Table II are
normalized.
"""

from __future__ import annotations

import numpy as np

from repro.adc.frontend import ConventionalFrontEnd
from repro.adc.thermometer import level_to_binary, quantize_array_to_levels
from repro.circuits.area_power import AreaPowerReport, estimate_netlist
from repro.circuits.logic_sim import CompiledNetlist
from repro.circuits.netlist import Netlist
from repro.circuits.synthesis import synthesize_constant_comparator, synthesize_sop
from repro.circuits.two_level import tree_label_logic
from repro.core.metrics import HardwareReport
from repro.mltrees.tree import LEAF, DecisionTree
from repro.pdk.egfet import EGFETTechnology, default_technology


def feature_bit_variable(feature: int, bit: int) -> str:
    """Net name of binary bit ``bit`` (0 = LSB) of input ``feature``."""
    return f"I{feature}_b{bit}"


def comparator_variable(node_id: int) -> str:
    """Variable name of the comparator output of decision node ``node_id``."""
    return f"cmp_{node_id}"


def build_comparator_tree_netlist(
    tree: DecisionTree,
    name: str = "baseline_tree",
    per_feature_bits: dict[int, int] | None = None,
) -> Netlist:
    """Synthesize the baseline digital block of a trained tree.

    Parameters
    ----------
    tree:
        Trained quantized decision tree.
    name:
        Netlist name.
    per_feature_bits:
        Optional per-feature input precision (MSBs retained).  Used by the
        precision-scaled baseline [7]; the exact baseline [2] always uses the
        tree's full resolution.  Thresholds are truncated onto the coarser
        grid of the reduced precision, which is the approximation [7] applies.

    Returns
    -------
    Netlist
        Inputs are the binary feature bits actually needed, outputs are the
        one-hot class signals ``class_<label>``.
    """
    resolution = tree.resolution_bits
    per_feature_bits = per_feature_bits or {}
    netlist = Netlist(name)

    # Primary inputs: only the bits each comparator can observe.
    bit_nets: dict[int, list[str]] = {}
    for feature in tree.used_features():
        bits = per_feature_bits.get(feature, resolution)
        bits = min(max(int(bits), 1), resolution)
        # MSB-first list of this feature's visible bits.
        nets = [
            netlist.add_input(feature_bit_variable(feature, bit))
            for bit in range(resolution - 1, resolution - bits - 1, -1)
        ]
        bit_nets[feature] = nets

    # One digital comparator per decision node (this is what #Comp. counts).
    comparator_nets: dict[int, str] = {}
    features, thresholds = tree.feature.tolist(), tree.threshold.tolist()
    for node in tree.preorder():
        feature, level = features[node], thresholds[node]
        if feature == LEAF:
            continue
        # Truncate the threshold onto the visible-bit grid (identity when the
        # full resolution is kept).
        constant = max(level >> (resolution - len(bit_nets[feature])), 1)
        comparator_nets[node] = synthesize_constant_comparator(
            netlist, bit_nets[feature], constant, operation=">="
        )

    # Two-level label logic over the comparator outputs.
    variable_nets = {
        comparator_variable(node): net for node, net in comparator_nets.items()
    }
    label_logic = tree_label_logic(
        tree,
        [
            None if feature == LEAF else comparator_variable(node)
            for node, feature in enumerate(features)
        ],
    )
    inverted: dict[str, str] = {}
    for label in range(tree.n_classes):
        sop = label_logic[label].minimized()
        output = synthesize_sop(netlist, sop, variable_nets, inverted)
        target = f"class_{label}"
        netlist.add_gate("BUF", [output], output=target)
        netlist.add_output(target)
    netlist.validate()
    return netlist


class BaselineBespokeDesign:
    """Complete baseline [2] implementation of a trained decision tree."""

    def __init__(
        self,
        tree: DecisionTree,
        technology: EGFETTechnology | None = None,
        name: str = "baseline[2]",
    ):
        self.tree = tree
        self.technology = technology if technology is not None else default_technology()
        self.name = name
        self.netlist = build_comparator_tree_netlist(tree, name=f"{name}_digital")
        self.frontend = ConventionalFrontEnd(
            feature_indices=tree.used_features(),
            resolution_bits=tree.resolution_bits,
            technology=self.technology,
        )
        self._compiled: CompiledNetlist | None = None

    # ------------------------------------------------------------------ #
    # cost
    # ------------------------------------------------------------------ #
    def digital_report(self) -> AreaPowerReport:
        """Area/power of the comparator-tree digital block."""
        return estimate_netlist(self.netlist, self.technology)

    def hardware_report(self) -> HardwareReport:
        """Combined ADC + digital hardware report (one row of Table I)."""
        digital = self.digital_report()
        return HardwareReport(
            name=self.name,
            adc_area_mm2=self.frontend.area_mm2,
            adc_power_uw=self.frontend.power_uw,
            digital_area_mm2=digital.area_mm2,
            digital_power_uw=digital.power_uw,
            n_inputs=self.frontend.n_channels,
            n_tree_comparators=self.tree.n_decision_nodes,
            n_adc_comparators=self.frontend.n_comparators,
        )

    # ------------------------------------------------------------------ #
    # behaviour (used for netlist-vs-model equivalence)
    # ------------------------------------------------------------------ #
    def bit_assignment(self, levels) -> dict[str, bool]:
        """Binary-bit input assignment of one quantized sample."""
        assignment: dict[str, bool] = {}
        resolution = self.tree.resolution_bits
        for feature in self.tree.used_features():
            bits = level_to_binary(int(levels[feature]), resolution)
            for position, bit in enumerate(bits):   # MSB first
                weight = resolution - 1 - position
                assignment[feature_bit_variable(feature, weight)] = bool(bit)
        return assignment

    def bit_matrix(self, X_levels: np.ndarray) -> dict[str, np.ndarray]:
        """Binary-bit input vectors of a whole quantized-sample matrix.

        Batch counterpart of :meth:`bit_assignment`: every input net of the
        comparator-tree netlist maps to one boolean vector with an entry per
        sample.
        """
        X_levels = np.asarray(X_levels, dtype=np.int64)
        if X_levels.ndim != 2:
            raise ValueError("expected a 2-D matrix of quantized samples")
        resolution = self.tree.resolution_bits
        assignment: dict[str, np.ndarray] = {}
        for feature in self.tree.used_features():
            column = X_levels[:, feature]
            for weight in range(resolution):
                assignment[feature_bit_variable(feature, weight)] = (
                    (column >> weight) & 1
                ).astype(bool)
        return assignment

    def _compiled_netlist(self) -> CompiledNetlist:
        if self._compiled is None:
            self._compiled = CompiledNetlist(self.netlist)
        return self._compiled

    def __getstate__(self):
        # The compiled simulator holds resolved evaluator callables; drop the
        # cache when pickling (e.g. through the process-pool executor) and
        # let the receiving side recompile lazily.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    def netlist_predict_one_level(self, levels) -> int:
        """Class predicted by the synthesized netlist for one quantized sample."""
        levels = np.asarray(levels, dtype=np.int64)
        return int(self.netlist_predict_levels(levels[np.newaxis, :])[0])

    def netlist_predict_levels(self, X_levels: np.ndarray) -> np.ndarray:
        """Netlist predictions of a whole quantized-sample matrix in one pass.

        The netlist is compiled once and every gate evaluates all samples
        simultaneously as boolean vectors; the winning class per sample is
        the lowest active one-hot output, mirroring the scalar rule.
        """
        compiled = self._compiled_netlist()
        bits = self.bit_matrix(X_levels)
        inputs = {net: bits[net] for net in compiled.inputs}
        outputs = compiled.evaluate_outputs(inputs, n_vectors=len(X_levels))
        fired = np.column_stack(
            [
                outputs.get(f"class_{label}", np.zeros(len(X_levels), dtype=bool))
                for label in range(self.tree.n_classes)
            ]
        )
        if not fired.any(axis=1).all():
            raise ValueError("baseline netlist produced no active class output")
        return np.argmax(fired, axis=1).astype(np.int64)

    def netlist_predict(self, X: np.ndarray) -> np.ndarray:
        """Netlist predictions for raw normalized samples (verification)."""
        levels = quantize_array_to_levels(
            np.asarray(X, dtype=float), self.tree.resolution_bits
        )
        return self.netlist_predict_levels(levels)
