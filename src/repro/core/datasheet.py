"""Datasheet generation for a co-designed printed classifier.

A "datasheet" collects, in one text document, everything a system integrator
needs about a generated classifier: the model summary, the per-input bespoke
ADC specification (retained reference levels and voltages), the digital label
logic size, area/power breakdown, timing against the sampling period, and the
self-power verdict.  It is the human-readable companion of the Verilog/DOT
artifacts produced by :mod:`repro.circuits.verilog` and
:mod:`repro.mltrees.render`.
"""

from __future__ import annotations

import numpy as np

from repro.core.bespoke_adc import build_bespoke_adcs
from repro.core.design import _unary_hardware_report
from repro.core.power_budget import analyze_self_power
from repro.core.unary_tree import UnaryDecisionTree, translate
from repro.mltrees.evaluation import accuracy_score
from repro.mltrees.tree import DecisionTree
from repro.pdk.egfet import EGFETTechnology, default_technology


def generate_datasheet(
    tree: DecisionTree | UnaryDecisionTree,
    name: str = "printed classifier",
    technology: EGFETTechnology | None = None,
    feature_names: list[str] | None = None,
    class_names: list[str] | None = None,
    X_test: np.ndarray | None = None,
    y_test: np.ndarray | None = None,
    ppa_backend=None,
) -> str:
    """Render a complete text datasheet for a trained, co-designed tree.

    Parameters
    ----------
    tree:
        The trained (quantized) decision tree to implement, or its
        :class:`~repro.core.unary_tree.UnaryDecisionTree`.  A bare tree is
        translated through :func:`~repro.core.unary_tree.translate`, so a
        tree translated before (costed, promoted) is not minimized again.
    name:
        Title of the datasheet.
    technology:
        EGFET technology used for costing (defaults to the calibrated PDK).
    feature_names, class_names:
        Optional labels used throughout the document.
    X_test, y_test:
        Optional normalized evaluation set; when given, the measured accuracy
        is included.
    ppa_backend:
        Source of the digital area/power/timing numbers (default: the
        analytic estimators; see :mod:`repro.circuits.ppa`).  With a
        :class:`~repro.circuits.ppa.ReportPPABackend`, the datasheet quotes
        the external flow's measured costs instead.
    """
    # Imported here to keep repro.core free of an import-time dependency on
    # repro.analysis (which itself imports repro.core for the result types).
    from repro.analysis.render import render_table
    from repro.circuits.ppa import resolve_ppa_backend

    technology = technology if technology is not None else default_technology()
    backend = resolve_ppa_backend(ppa_backend)
    unary = translate(tree)
    tree = unary.tree
    hardware = _unary_hardware_report(unary, technology, name=name, ppa_backend=backend)
    self_power = analyze_self_power(hardware, technology)
    netlist = unary.to_netlist("label_logic")
    timing = backend.timing(netlist, technology)
    adcs = build_bespoke_adcs(unary, technology, feature_names=feature_names)

    lines: list[str] = []
    lines.append(f"DATASHEET -- {name}")
    lines.append("=" * (13 + len(name)))
    lines.append("")

    # ------------------------------------------------------------------ #
    # model summary
    # ------------------------------------------------------------------ #
    lines.append("Model")
    lines.append("-----")
    lines.append(f"decision tree, depth {tree.depth}, {tree.n_decision_nodes} decision "
                 f"nodes, {tree.n_leaves} leaves, {tree.n_classes} classes, "
                 f"{tree.resolution_bits}-bit quantized inputs")
    if class_names:
        lines.append(f"classes: {', '.join(class_names[:tree.n_classes])}")
    if X_test is not None and y_test is not None:
        accuracy = accuracy_score(np.asarray(y_test), tree.predict(np.asarray(X_test)))
        lines.append(f"test accuracy: {accuracy * 100:.1f} %")
    lines.append("")

    # ------------------------------------------------------------------ #
    # analog front end
    # ------------------------------------------------------------------ #
    lines.append("Bespoke ADC front end")
    lines.append("---------------------")
    n_levels = 2 ** tree.resolution_bits
    adc_rows = []
    for feature, adc in adcs.items():
        taps = ", ".join(f"{level}/{n_levels}" for level in adc.retained_levels)
        adc_rows.append(
            (adc.feature_name or f"I{feature}", adc.label, taps,
             adc.area_mm2, adc.power_uw)
        )
    if adc_rows:
        lines.append(render_table(
            ["input", "type", "retained thresholds (xVdd)", "area (mm2)", "power (uW)"],
            adc_rows,
        ))
    else:
        lines.append("(the tree uses no input feature; no ADC channel required)")
    lines.append("")

    # ------------------------------------------------------------------ #
    # digital label logic
    # ------------------------------------------------------------------ #
    lines.append("Digital label logic (two-level, parallel unary)")
    lines.append("-----------------------------------------------")
    histogram = dict(sorted(netlist.cell_histogram().items()))
    lines.append(f"{netlist.n_gates} cells: {histogram}")
    lines.append(f"critical path: {timing.critical_path_delay_ms:.1f} ms over "
                 f"{timing.logic_depth} cells "
                 f"({'meets' if timing.meets_timing else 'VIOLATES'} the "
                 f"{timing.sampling_period_ms:.0f} ms sampling period at "
                 f"{technology.frequency_hz:.0f} Hz)")
    lines.append("")

    # ------------------------------------------------------------------ #
    # cost and power budget
    # ------------------------------------------------------------------ #
    lines.append("Area / power")
    lines.append("------------")
    lines.append(render_table(
        ["block", "area (mm2)", "power (mW)"],
        [
            ("bespoke ADCs", hardware.adc_area_mm2, hardware.adc_power_mw),
            ("label logic", hardware.digital_area_mm2, hardware.digital_power_mw),
            ("total classifier", hardware.total_area_mm2, hardware.total_power_mw),
            ("printed sensors", 0.0, self_power.sensor_power_mw),
            ("complete system", hardware.total_area_mm2, self_power.total_power_mw),
        ],
    ))
    lines.append("")
    lines.append(f"self-power: {'YES' if self_power.is_self_powered else 'NO'} "
                 f"({self_power.total_power_mw:.3f} mW of the "
                 f"{self_power.harvester_budget_mw:.1f} mW harvester budget, "
                 f"{self_power.utilization * 100:.0f}% utilization)")
    lines.append("")
    lines.append(f"technology: {technology.name}, Vdd {technology.vdd:g} V, "
                 f"{technology.frequency_hz:g} Hz")
    return "\n".join(lines) + "\n"
