"""Pareto-front utilities for the design-space exploration.

The constrained selection of Section IV answers "cheapest design within X %
accuracy loss"; the Pareto front answers the broader question "which explored
designs are worth looking at at all".  These helpers are generic over the
objectives so they can rank accuracy-vs-power, accuracy-vs-area, or any other
pair extracted from :class:`~repro.core.exploration.DesignPoint`.

Two layers live here:

* the original two-objective ``(maximize, minimize)`` helpers the analysis
  tables grew up on (:func:`pareto_front` and the accuracy-vs-cost
  convenience fronts), built on the primitives below, and
* the general **minimize-tuple** primitives (:func:`dominates`,
  :func:`non_dominated_indices`) the budgeted multi-objective search
  (:mod:`repro.search`) extracts its fronts with: every objective tuple is
  minimized component-wise, maximized metrics enter negated (the
  ``(-accuracy, power, area)`` convention of the study objectives).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.design import DesignPoint


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when minimize-tuple ``a`` Pareto-dominates ``b``.

    ``a`` dominates ``b`` when it is no worse on every component and
    strictly better on at least one.  Equal tuples never dominate each
    other, so duplicated objective vectors coexist on a front.
    """
    if len(a) != len(b):
        raise ValueError(
            f"objective tuples must have equal length, got {len(a)} and {len(b)}"
        )
    at_least_as_good = all(ai <= bi for ai, bi in zip(a, b))
    return at_least_as_good and any(ai < bi for ai, bi in zip(a, b))


def non_dominated_indices(objectives: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated minimize-tuples, in input order.

    Brute-force pairwise dominance (the reference semantics the NSGA-II
    sort in :mod:`repro.search.optimizer` is property-tested against).
    Duplicated tuples are all retained -- neither copy dominates the other
    -- so callers that want one representative per objective vector
    deduplicate on top.
    """
    front: list[int] = []
    for i, candidate in enumerate(objectives):
        if not any(
            dominates(other, candidate)
            for j, other in enumerate(objectives)
            if j != i
        ):
            front.append(i)
    return front


def pareto_front(
    items: Sequence,
    maximize: Callable[[object], float],
    minimize: Callable[[object], float],
) -> list:
    """Return the items not dominated under (maximize, minimize) objectives.

    Dominance is :func:`non_dominated_indices` over ``(-maximize, minimize)``.
    The returned front is sorted by the minimized objective (ascending), and
    items with the same rounded objective pair appear once.
    """
    front = non_dominated_indices([(-maximize(item), minimize(item)) for item in items])
    seen: set[tuple[float, float]] = set()
    unique = []
    for item in sorted((items[i] for i in front), key=lambda it: (minimize(it), -maximize(it))):
        key = (round(minimize(item), 12), round(maximize(item), 12))
        if key not in seen:
            seen.add(key)
            unique.append(item)
    return unique


def accuracy_power_front(points: Sequence[DesignPoint]) -> list[DesignPoint]:
    """Accuracy-vs-total-power Pareto front of explored design points."""
    return pareto_front(
        points,
        maximize=lambda p: p.accuracy,
        minimize=lambda p: p.hardware.total_power_uw,
    )


def accuracy_area_front(points: Sequence[DesignPoint]) -> list[DesignPoint]:
    """Accuracy-vs-total-area Pareto front of explored design points."""
    return pareto_front(
        points,
        maximize=lambda p: p.accuracy,
        minimize=lambda p: p.hardware.total_area_mm2,
    )
