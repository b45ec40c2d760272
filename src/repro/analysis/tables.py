"""Rows of the paper's Tables I and II (and their offset-aware variants)."""

from __future__ import annotations

from collections.abc import Sequence
from statistics import mean

from repro.core.codesign import CoDesignResult
from repro.core.design import DesignPoint
from repro.core.power_budget import analyze_self_power


def table1_rows(results: list[CoDesignResult]) -> list[dict]:
    """Evaluation of the baseline bespoke decision trees (Table I).

    One row per benchmark: accuracy, number of tree comparators, number of
    used inputs, ADC/total area and ADC/total power of the baseline [2].
    """
    rows = []
    for result in results:
        hardware = result.baseline.hardware
        rows.append(
            {
                "dataset": result.dataset,
                "accuracy_pct": result.baseline.accuracy * 100.0,
                "n_comparators": hardware.n_tree_comparators,
                "n_inputs": hardware.n_inputs,
                "adc_area_mm2": hardware.adc_area_mm2,
                "total_area_mm2": hardware.total_area_mm2,
                "adc_power_mw": hardware.adc_power_mw,
                "total_power_mw": hardware.total_power_mw,
                "adc_area_fraction": hardware.adc_area_fraction,
                "adc_power_fraction": hardware.adc_power_fraction,
                "self_powered": hardware.total_power_mw <= 2.0,
            }
        )
    return rows


def table1_summary(rows: list[dict]) -> dict:
    """Averages quoted in the Table I discussion."""
    if not rows:
        return {
            "average_total_area_mm2": 0.0,
            "average_total_power_mw": 0.0,
            "average_adc_area_fraction": 0.0,
            "average_adc_power_fraction": 0.0,
        }
    return {
        "average_total_area_mm2": mean(r["total_area_mm2"] for r in rows),
        "average_total_power_mw": mean(r["total_power_mw"] for r in rows),
        "average_adc_area_fraction": mean(r["adc_area_fraction"] for r in rows),
        "average_adc_power_fraction": mean(r["adc_power_fraction"] for r in rows),
    }


def table2_rows(results: list[CoDesignResult], accuracy_loss: float = 0.01) -> list[dict]:
    """Evaluation of the co-designed decision trees for <= 1 % accuracy loss (Table II)."""
    rows = []
    for result in results:
        chosen = result.selected.get(accuracy_loss)
        if chosen is None:
            continue
        vs_baseline = result.table2_reduction(accuracy_loss)
        vs_approx = result.table2_reduction_vs_approximate(accuracy_loss)
        technology = result.metadata.get("technology")
        self_power = analyze_self_power(chosen.hardware, technology)
        rows.append(
            {
                "dataset": result.dataset,
                "accuracy_pct": chosen.accuracy * 100.0,
                "depth": chosen.depth,
                "tau": chosen.tau,
                "area_mm2": chosen.hardware.total_area_mm2,
                "power_mw": chosen.hardware.total_power_mw,
                "area_reduction_vs_baseline_x": vs_baseline.area_factor if vs_baseline else float("nan"),
                "power_reduction_vs_baseline_x": vs_baseline.power_factor if vs_baseline else float("nan"),
                "area_reduction_vs_approx_x": vs_approx.area_factor if vs_approx else float("nan"),
                "power_reduction_vs_approx_x": vs_approx.power_factor if vs_approx else float("nan"),
                "self_powered": self_power.is_self_powered,
            }
        )
    return rows


def exploration_rows(points: Sequence[DesignPoint]) -> list[dict]:
    """One row per design point of a (robustness-annotated) exploration.

    The ``mean_accuracy_drop_pct`` / ``worst_case_drop_pct`` columns are
    ``None`` for points that have not been through the variation-aware pass.
    """
    rows = []
    for point in points:
        rows.append(
            {
                "dataset": point.dataset,
                "depth": point.depth,
                "tau": point.tau,
                "accuracy_pct": point.accuracy * 100.0,
                "area_mm2": point.hardware.total_area_mm2,
                "power_mw": point.hardware.total_power_mw,
                "mean_accuracy_drop_pct": (
                    None
                    if point.mean_accuracy_drop is None
                    else point.mean_accuracy_drop * 100.0
                ),
                "worst_case_drop_pct": (
                    None
                    if point.worst_case_drop is None
                    else point.worst_case_drop * 100.0
                ),
            }
        )
    return rows


def table2_robust_rows(
    explorations: Sequence,
    accuracy_loss: float = 0.01,
    max_accuracy_drop: float | None = 0.01,
) -> list[dict]:
    """Offset-aware Table II: co-design selection under a robustness budget.

    One row per benchmark from a
    :class:`~repro.analysis.experiments.RobustExploration`: the most
    power-efficient design meeting *both* the nominal accuracy-loss
    constraint and the ``max_accuracy_drop`` mean-robustness constraint,
    with its Monte-Carlo drop columns.  Benchmarks where no design satisfies
    the joint constraint report a ``feasible = False`` row (the selection
    columns are ``None``) instead of silently disappearing.
    """
    rows = []
    for exploration in explorations:
        point = exploration.select(
            max_accuracy_loss=accuracy_loss, max_accuracy_drop=max_accuracy_drop
        )
        row = {
            "dataset": exploration.dataset,
            "sigma_mv": exploration.sigma_v * 1000.0,
            "n_trials": exploration.n_trials,
            "feasible": point is not None,
            "depth": None,
            "tau": None,
            "accuracy_pct": None,
            "mean_accuracy_drop_pct": None,
            "worst_case_drop_pct": None,
            "area_mm2": None,
            "power_mw": None,
        }
        if point is not None:
            row.update(
                {
                    "depth": point.depth,
                    "tau": point.tau,
                    "accuracy_pct": point.accuracy * 100.0,
                    "mean_accuracy_drop_pct": point.mean_accuracy_drop * 100.0,
                    "worst_case_drop_pct": point.worst_case_drop * 100.0,
                    "area_mm2": point.hardware.total_area_mm2,
                    "power_mw": point.hardware.total_power_mw,
                }
            )
        rows.append(row)
    return rows


def table2_robust_summary(rows: list[dict]) -> dict:
    """Averages over the feasible rows of the offset-aware Table II.

    With zero feasible rows the averages are ``None`` -- "no feasible
    design" is not the same claim as "the feasible designs average zero
    power", and renderers spell the difference out as ``n/a``.
    """
    feasible = [row for row in rows if row["feasible"]]
    if not feasible:
        return {
            "n_feasible": 0,
            "average_power_mw": None,
            "average_area_mm2": None,
            "average_mean_accuracy_drop_pct": None,
        }
    return {
        "n_feasible": len(feasible),
        "average_power_mw": mean(r["power_mw"] for r in feasible),
        "average_area_mm2": mean(r["area_mm2"] for r in feasible),
        "average_mean_accuracy_drop_pct": mean(
            r["mean_accuracy_drop_pct"] for r in feasible
        ),
    }


def robustness_surface_rows(surface) -> list[dict]:
    """One row per (depth, tau) grid point of a robustness surface.

    Produced from a
    :class:`~repro.analysis.experiments.RobustnessSurface`: the nominal
    (zero-offset) accuracy of the point's tree plus one mean-accuracy-drop
    column per sigma, in the surface's ascending sigma order.
    """
    rows = []
    for depth in surface.depths:
        for tau in surface.taus:
            cells = [surface.cell(sigma, depth, tau) for sigma in surface.sigmas]
            rows.append(
                {
                    "depth": depth,
                    "tau": tau,
                    "nominal_accuracy_pct": cells[0].nominal_accuracy * 100.0,
                    "mean_drop_pct_by_sigma": tuple(
                        cell.mean_accuracy_drop * 100.0 for cell in cells
                    ),
                    "worst_drop_pct_by_sigma": tuple(
                        cell.worst_case_drop * 100.0 for cell in cells
                    ),
                }
            )
    return rows


def robustness_surface_summary(surface) -> dict:
    """Per-sigma aggregates over the full grid of a robustness surface."""
    per_sigma = []
    for sigma in surface.sigmas:
        cells = [cell for cell in surface.cells if cell.sigma_v == sigma]
        per_sigma.append(
            {
                "sigma_v": sigma,
                "average_mean_accuracy_drop_pct": mean(
                    cell.mean_accuracy_drop for cell in cells
                ) * 100.0,
                "max_mean_accuracy_drop_pct": max(
                    cell.mean_accuracy_drop for cell in cells
                ) * 100.0,
                "max_worst_case_drop_pct": max(
                    cell.worst_case_drop for cell in cells
                ) * 100.0,
            }
        )
    return {"dataset": surface.dataset, "per_sigma": per_sigma}


def table2_summary(rows: list[dict]) -> dict:
    """Averages quoted in the Table II discussion."""
    if not rows:
        return {
            "average_area_mm2": 0.0,
            "average_power_mw": 0.0,
            "average_area_reduction_vs_baseline_x": 0.0,
            "average_power_reduction_vs_baseline_x": 0.0,
        }
    return {
        "average_area_mm2": mean(r["area_mm2"] for r in rows),
        "average_power_mw": mean(r["power_mw"] for r in rows),
        "average_area_reduction_vs_baseline_x": mean(
            r["area_reduction_vs_baseline_x"] for r in rows
        ),
        "average_power_reduction_vs_baseline_x": mean(
            r["power_reduction_vs_baseline_x"] for r in rows
        ),
    }
