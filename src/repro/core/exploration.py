"""Design-space exploration of the co-design hyperparameters (Section IV).

The paper brute-forces the two training hyperparameters -- tree depth
(2..8) and Gini tolerance tau (0..0.03 in steps of 0.005) -- trains one
ADC-aware tree per combination, and then picks, per accuracy-loss constraint
(0 %, 1 %, 5 %), the most hardware-efficient design that still meets the
constraint.  This module holds the grid (:func:`grid_points`) and the
constrained selection (:func:`select_best_design`); every grid point is one
:class:`~repro.core.design.DesignSpec`, trained by the suite's fan-out
(:func:`~repro.analysis.experiments.run_benchmark_suite`).  Given
points that carry a comparator-offset Monte-Carlo summary (attached by
:func:`~repro.analysis.experiments.run_robust_exploration`),
:func:`select_best_design` can also constrain the selection by
``max_accuracy_drop`` -- the offset-aware co-design of Table II.
"""

from __future__ import annotations

import math

# DesignPoint and proposed_hardware_report stay part of this module's interface.
from repro.core.design import DesignPoint, proposed_hardware_report  # noqa: F401
from repro.core.variation import simulate_offset_variation  # noqa: F401 (public re-export)

#: Default tau grid of the paper: 0 to 0.03 in increments of 0.005.
DEFAULT_TAUS: tuple[float, ...] = (0.0, 0.005, 0.010, 0.015, 0.020, 0.025, 0.030)

#: Default depth grid of the paper: 2 to 8 with a step of 1.
DEFAULT_DEPTHS: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)


def grid_points(
    depths: tuple[int, ...], taus: tuple[float, ...]
) -> tuple[tuple[int, float], ...]:
    """The (depth, tau) grid in canonical depth-major order.

    Single source of truth for every consumer that enumerates the
    exploration grid -- the sweep itself, result ordering, and the sharded
    work-unit planner (:mod:`repro.core.sharding`) -- so grid positions,
    table rows and shard assignments can never disagree about order.
    """
    return tuple((depth, tau) for depth in depths for tau in taus)


def select_best_design(
    points: list[DesignPoint],
    reference_accuracy: float,
    max_accuracy_loss: float,
    objective: str = "power",
    max_accuracy_drop: float | None = None,
) -> DesignPoint | None:
    """Pick the most hardware-efficient design meeting the accuracy constraint.

    Parameters
    ----------
    points:
        Evaluated design points.
    reference_accuracy:
        Accuracy of the baseline the loss is measured against.
    max_accuracy_loss:
        Maximum allowed absolute accuracy drop (0.0, 0.01 and 0.05 in the
        paper).
    objective:
        ``"power"`` (default, the binding constraint for self-powered
        operation) or ``"area"``.
    max_accuracy_drop:
        Optional robustness constraint: maximum allowed *mean* accuracy drop
        under comparator-offset variation.  Only points that carry a
        robustness summary (see
        :func:`~repro.analysis.experiments.run_robust_exploration`) can
        satisfy it;
        points without one are treated as infeasible, so a constrained
        selection never silently picks an unanalyzed design.

    Returns
    -------
    DesignPoint | None
        The selected point, or ``None`` when no point satisfies the
        constraints.  A budget that is negative or not finite is a
        ``ValueError``, not an empty selection.
    """
    if objective not in {"power", "area"}:
        raise ValueError("objective must be 'power' or 'area'")
    for name, budget in (
        ("max_accuracy_loss", max_accuracy_loss),
        ("max_accuracy_drop", max_accuracy_drop),
    ):
        if budget is not None and not (math.isfinite(budget) and budget >= 0):
            raise ValueError(f"{name} must be a finite number >= 0, got {budget!r}")
    floor = reference_accuracy - max_accuracy_loss
    feasible = [point for point in points if point.accuracy >= floor - 1e-12]
    if max_accuracy_drop is not None:
        feasible = [
            point
            for point in feasible
            if point.mean_accuracy_drop is not None
            and point.mean_accuracy_drop <= max_accuracy_drop + 1e-12
        ]
    if not feasible:
        return None
    if objective == "power":

        def key(p: DesignPoint):
            return (p.hardware.total_power_uw, p.hardware.total_area_mm2)

    else:

        def key(p: DesignPoint):
            return (p.hardware.total_area_mm2, p.hardware.total_power_uw)

    return min(feasible, key=key)
