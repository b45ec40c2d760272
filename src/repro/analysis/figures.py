"""Data series behind the paper's figures.

Each function returns plain Python records (lists of dicts) so the benchmark
harness can print the same series the paper plots and tests can assert on the
expected shapes (linear area scaling, power position-dependence, reduction
factors, ...).
"""

from __future__ import annotations

from statistics import mean

from repro.core.codesign import CoDesignResult
from repro.pdk.egfet import EGFETTechnology, default_technology


def fig3_series(
    technology: EGFETTechnology | None = None,
    resolution_bits: int = 4,
) -> dict:
    """Area/power of bespoke ADCs vs number and position of output unary digits.

    Mirrors Fig. 3: for every output-digit count ``n`` from 1 to ``2**N - 1``,
    every *contiguous* window of retained levels is evaluated (the paper
    plots the windows in sequential order to showcase the power behaviour).
    The conventional ADC of the same resolution is included for reference.
    """
    from repro.adc.bespoke import BespokeADC
    from repro.adc.flash import FlashADC

    technology = technology if technology is not None else default_technology()
    n_taps = 2 ** resolution_bits - 1
    points = []
    for n_digits in range(1, n_taps + 1):
        for start in range(1, n_taps - n_digits + 2):
            levels = tuple(range(start, start + n_digits))
            adc = BespokeADC(
                retained_levels=levels,
                resolution_bits=resolution_bits,
                technology=technology,
            )
            points.append(
                {
                    "n_unary_digits": n_digits,
                    "start_level": start,
                    "levels": levels,
                    "area_mm2": adc.area_mm2,
                    "power_uw": adc.power_uw,
                }
            )
    conventional = FlashADC(resolution_bits=resolution_bits, technology=technology)
    return {
        "points": points,
        "conventional_area_mm2": conventional.area_mm2,
        "conventional_power_uw": conventional.power_uw,
    }


def fig4_series(results: list[CoDesignResult]) -> dict:
    """Area/power reduction factors of the bespoke-ADC unary designs vs [2]."""
    rows = []
    for result in results:
        reduction = result.fig4_reduction()
        rows.append(
            {
                "dataset": result.dataset,
                "abbreviation": result.metadata.get("abbreviation", result.dataset),
                "area_reduction_x": reduction.area_factor,
                "power_reduction_x": reduction.power_factor,
            }
        )
    return {
        "rows": rows,
        "average_area_reduction_x": mean(r["area_reduction_x"] for r in rows) if rows else 0.0,
        "average_power_reduction_x": mean(r["power_reduction_x"] for r in rows) if rows else 0.0,
    }


def fig5_series(
    results: list[CoDesignResult],
    accuracy_losses: tuple[float, ...] = (0.0, 0.01, 0.05),
) -> dict:
    """Additional reductions (%) delivered by the ADC-aware training (Fig. 5).

    Reductions are measured against the Fig. 4 designs (unary architecture +
    bespoke ADCs with the ADC-unaware model), per accuracy-loss constraint.
    """
    panels: dict[float, dict] = {}
    for loss in accuracy_losses:
        rows = []
        for result in results:
            reduction = result.fig5_reduction(loss)
            if reduction is None:
                continue
            rows.append(
                {
                    "dataset": result.dataset,
                    "abbreviation": result.metadata.get("abbreviation", result.dataset),
                    "area_reduction_pct": reduction.area_percent,
                    "power_reduction_pct": reduction.power_percent,
                }
            )
        panels[loss] = {
            "rows": rows,
            "average_area_reduction_pct": (
                mean(r["area_reduction_pct"] for r in rows) if rows else 0.0
            ),
            "average_power_reduction_pct": (
                mean(r["power_reduction_pct"] for r in rows) if rows else 0.0
            ),
        }
    return panels
