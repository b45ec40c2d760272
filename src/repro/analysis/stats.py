"""Multi-seed statistical evaluation of the co-design flow.

The paper reports single-split numbers; for a library release it is useful to
know how stable the gains are across dataset-synthesis/split/training seeds.
:func:`run_multi_seed` repeats the co-design flow for several seeds and
aggregates the headline metrics (baseline power, co-design power, reduction
factors, self-power verdicts) into means and standard deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.experiments import run_benchmark_suite
from repro.core.codesign import select_designs
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS, select_best_design


@dataclass(frozen=True)
class MetricStatistics:
    """Mean/std/min/max summary of one scalar metric across seeds."""

    name: str
    mean: float
    std: float
    minimum: float
    maximum: float
    values: tuple[float, ...]

    @classmethod
    def from_values(cls, name: str, values: list[float]) -> "MetricStatistics":
        array = np.asarray(values, dtype=float)
        return cls(
            name=name,
            mean=float(array.mean()),
            std=float(array.std()),
            minimum=float(array.min()),
            maximum=float(array.max()),
            values=tuple(float(v) for v in values),
        )


@dataclass(frozen=True)
class MultiSeedSummary:
    """Aggregated co-design metrics for one benchmark across seeds."""

    dataset: str
    seeds: tuple[int, ...]
    accuracy_loss: float
    baseline_accuracy: MetricStatistics
    codesign_accuracy: MetricStatistics
    baseline_power_mw: MetricStatistics
    codesign_power_mw: MetricStatistics
    area_reduction_x: MetricStatistics
    power_reduction_x: MetricStatistics
    self_powered_fraction: float


def run_multi_seed(
    dataset_name: str,
    seeds: tuple[int, ...] = (0, 1, 2),
    accuracy_loss: float = 0.01,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    taus: tuple[float, ...] = DEFAULT_TAUS,
) -> MultiSeedSummary:
    """Run the co-design flow for several seeds and aggregate the key metrics.

    Every seed controls the synthetic dataset draw, the 70/30 split and the
    trainers, so the spread reflects the full pipeline variability.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    # Selection over no points only validates the budget: a negative or
    # non-finite one is rejected before any seed trains.
    select_best_design([], 0.0, accuracy_loss)

    baseline_accuracy: list[float] = []
    codesign_accuracy: list[float] = []
    baseline_power: list[float] = []
    codesign_power: list[float] = []
    area_reduction: list[float] = []
    power_reduction: list[float] = []
    self_powered: list[bool] = []

    for seed in seeds:
        (result,) = run_benchmark_suite(
            (dataset_name,), seed=seed, include_approximate_baseline=False,
            depths=depths, taus=taus, store=None,
        )
        result = select_designs(result, result.exploration, (accuracy_loss,))
        chosen = result.selected.get(accuracy_loss)
        if chosen is None:
            # No feasible point for this seed: fall back to the unary design
            # so the aggregate still reflects a buildable classifier.
            chosen = result.unary_bespoke_adc
        reduction = result.table2_reduction(accuracy_loss)
        if reduction is None:
            reduction = result.fig4_reduction()
        analysis = result.self_power(accuracy_loss)

        baseline_accuracy.append(result.baseline.accuracy)
        codesign_accuracy.append(chosen.accuracy)
        baseline_power.append(result.baseline.hardware.total_power_mw)
        codesign_power.append(chosen.hardware.total_power_mw)
        area_reduction.append(reduction.area_factor)
        power_reduction.append(reduction.power_factor)
        self_powered.append(bool(analysis.is_self_powered) if analysis else False)

    return MultiSeedSummary(
        dataset=dataset_name,
        seeds=tuple(seeds),
        accuracy_loss=accuracy_loss,
        baseline_accuracy=MetricStatistics.from_values("baseline_accuracy", baseline_accuracy),
        codesign_accuracy=MetricStatistics.from_values("codesign_accuracy", codesign_accuracy),
        baseline_power_mw=MetricStatistics.from_values("baseline_power_mw", baseline_power),
        codesign_power_mw=MetricStatistics.from_values("codesign_power_mw", codesign_power),
        area_reduction_x=MetricStatistics.from_values("area_reduction_x", area_reduction),
        power_reduction_x=MetricStatistics.from_values("power_reduction_x", power_reduction),
        self_powered_fraction=float(np.mean(self_powered)),
    )
