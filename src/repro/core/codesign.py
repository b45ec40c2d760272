"""End-to-end co-design framework.

:class:`CoDesignFramework` runs, for one benchmark dataset, the complete flow
the paper evaluates:

1. **Baseline [2]** -- conventional Gini training (minimum depth achieving
   maximum accuracy, up to 8), binary bespoke comparator tree, conventional
   flash ADC per input (Table I).
2. **Unary + bespoke ADCs, ADC-unaware model** -- the *same* baseline tree
   re-implemented with the proposed parallel unary architecture and bespoke
   ADCs (Fig. 4).
3. **ADC-aware co-design** -- the depth x tau exploration with the ADC-aware
   trainer, and the selection of the most power-efficient design for each
   accuracy-loss constraint (Fig. 5, Table II).
4. **Approximate baseline [7]** (optional) -- precision-scaled comparison
   point of Table II.
5. **Self-power feasibility** of every produced design.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.baselines.balaskas import BalaskasApproximateDesign, fit_balaskas_design
from repro.baselines.mubarik import BaselineBespokeDesign
from repro.core.design import DesignPoint, DesignSpec, evaluate_family, proposed_hardware_report
from repro.core.exploration import (
    DEFAULT_DEPTHS,
    DEFAULT_TAUS,
    grid_points,
    select_best_design,
)
from repro.core.metrics import ClassifierDesign, ReductionReport, compare_designs
from repro.core.power_budget import SelfPowerAnalysis, analyze_self_power
from repro.datasets.base import Dataset
from repro.mltrees.cart import fit_baseline_tree
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.pdk.egfet import EGFETTechnology, default_technology


@dataclass
class CoDesignResult:
    """Everything the evaluation section needs for one benchmark dataset."""

    dataset: str
    baseline: ClassifierDesign
    unary_bespoke_adc: ClassifierDesign
    exploration: list[DesignPoint]
    selected: dict[float, ClassifierDesign]
    approximate_baseline: ClassifierDesign | None = None
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # derived quantities used by the figures/tables
    # ------------------------------------------------------------------ #
    def fig4_reduction(self) -> ReductionReport:
        """Gains of the bespoke-ADC unary design over the baseline [2] (Fig. 4)."""
        return compare_designs(self.baseline.hardware, self.unary_bespoke_adc.hardware)

    def fig5_reduction(self, accuracy_loss: float) -> ReductionReport | None:
        """Additional gains of ADC-aware training over the Fig. 4 design (Fig. 5)."""
        chosen = self.selected.get(accuracy_loss)
        if chosen is None:
            return None
        return compare_designs(self.unary_bespoke_adc.hardware, chosen.hardware)

    def table2_reduction(self, accuracy_loss: float = 0.01) -> ReductionReport | None:
        """Gains of the selected co-design over the baseline [2] (Table II)."""
        chosen = self.selected.get(accuracy_loss)
        if chosen is None:
            return None
        return compare_designs(self.baseline.hardware, chosen.hardware)

    def table2_reduction_vs_approximate(
        self, accuracy_loss: float = 0.01
    ) -> ReductionReport | None:
        """Gains of the selected co-design over the approximate baseline [7]."""
        chosen = self.selected.get(accuracy_loss)
        if chosen is None or self.approximate_baseline is None:
            return None
        return compare_designs(self.approximate_baseline.hardware, chosen.hardware)

    def self_power(self, accuracy_loss: float = 0.01) -> SelfPowerAnalysis | None:
        """Self-power feasibility of the selected co-design."""
        chosen = self.selected.get(accuracy_loss)
        if chosen is None:
            return None
        technology = self.metadata.get("technology")
        return analyze_self_power(chosen.hardware, technology)


#: Accuracy-loss budgets of the paper's design selection (Fig. 5, Table II).
DEFAULT_ACCURACY_LOSSES: tuple[float, ...] = (0.0, 0.01, 0.05)


def select_designs(
    reference: CoDesignResult,
    exploration: list[DesignPoint],
    accuracy_losses: tuple[float, ...] = DEFAULT_ACCURACY_LOSSES,
) -> CoDesignResult:
    """Complete a :meth:`CoDesignFramework.run_reference` result.

    Attaches the explored points and picks the most power-efficient one for
    every accuracy-loss budget (Fig. 5, Table II).
    """
    selected: dict[float, ClassifierDesign] = {}
    for loss in accuracy_losses:
        point = select_best_design(exploration, reference.baseline.accuracy, loss)
        if point is None:
            continue
        selected[loss] = ClassifierDesign(
            name=f"codesign (<= {loss:.0%} accuracy loss)",
            dataset=reference.dataset,
            accuracy=point.accuracy,
            hardware=point.hardware,
            depth=point.depth,
            tau=point.tau,
        )
    return replace(reference, exploration=list(exploration), selected=selected)


class CoDesignFramework:
    """Orchestrates the full paper flow for one dataset."""

    def __init__(
        self,
        technology: EGFETTechnology | None = None,
        resolution_bits: int = 4,
        max_baseline_depth: int = 8,
        depths: tuple[int, ...] = DEFAULT_DEPTHS,
        taus: tuple[float, ...] = DEFAULT_TAUS,
        accuracy_losses: tuple[float, ...] = DEFAULT_ACCURACY_LOSSES,
        test_size: float = 0.3,
        seed: int = 0,
        include_approximate_baseline: bool = True,
        training_sigma: float = 0.0,
        robustness_weight: float = 1.0,
        ppa_backend=None,
    ):
        from repro.circuits.ppa import resolve_ppa_backend

        self.technology = technology if technology is not None else default_technology()
        self.resolution_bits = resolution_bits
        self.max_baseline_depth = max_baseline_depth
        self.depths = tuple(depths)
        self.taus = tuple(taus)
        if not self.depths or not self.taus:
            raise ValueError("the exploration grid must not be empty")
        self.accuracy_losses = tuple(accuracy_losses)
        self.test_size = test_size
        self.seed = seed
        self.include_approximate_baseline = include_approximate_baseline
        #: Offset-aware training knobs of the depth x tau exploration: the
        #: comparator offset sigma (volts) the trainer assumes, and the
        #: weight of the expected-flip penalty in its split scores.  The
        #: baseline [2] stays nominal -- it is the reference the accuracy
        #: losses are measured against.
        if training_sigma < 0:
            raise ValueError("training_sigma must be >= 0")
        if robustness_weight < 0:
            raise ValueError("robustness_weight must be >= 0")
        self.training_sigma = training_sigma
        self.robustness_weight = robustness_weight
        #: Source of the digital area/power numbers for the unary designs
        #: (default: the analytic cell-count model, bit-identical to the
        #: pre-backend flow).  The baseline [2] comparator tree keeps the
        #: analytic model -- it is the literature reference the reductions
        #: are measured against, not a design this framework exports.
        self.ppa_backend = resolve_ppa_backend(ppa_backend)

    # ------------------------------------------------------------------ #
    # data preparation
    # ------------------------------------------------------------------ #
    def prepare(self, dataset: Dataset):
        """Split and quantize a dataset with the paper's 70/30 protocol."""
        X_train, X_test, y_train, y_test = train_test_split(
            dataset.X, dataset.y, test_size=self.test_size, seed=self.seed
        )
        return (
            quantize_dataset(X_train, self.resolution_bits),
            quantize_dataset(X_test, self.resolution_bits),
            y_train,
            y_test,
        )

    # ------------------------------------------------------------------ #
    # individual stages
    # ------------------------------------------------------------------ #
    def run_baseline(
        self,
        dataset: Dataset,
        X_train_levels: np.ndarray,
        y_train: np.ndarray,
        X_test_levels: np.ndarray,
        y_test: np.ndarray,
    ) -> tuple[ClassifierDesign, ClassifierDesign]:
        """Build the Table I baseline and its Fig. 4 unary re-implementation."""
        fit = fit_baseline_tree(
            X_train_levels,
            y_train,
            X_test_levels,
            y_test,
            n_classes=dataset.n_classes,
            max_depth=self.max_baseline_depth,
            resolution_bits=self.resolution_bits,
            seed=self.seed,
        )
        baseline_impl = BaselineBespokeDesign(
            fit.tree, self.technology, name=f"baseline[2] {dataset.name}"
        )
        baseline = ClassifierDesign(
            name="baseline[2]",
            dataset=dataset.name,
            accuracy=fit.test_accuracy,
            hardware=baseline_impl.hardware_report(),
            depth=fit.depth,
        )
        unary_hw = proposed_hardware_report(
            fit.tree,
            self.technology,
            name=f"unary+bespokeADC {dataset.name}",
            ppa_backend=self.ppa_backend,
        )
        unary = ClassifierDesign(
            name="unary+bespokeADC (ADC-unaware model)",
            dataset=dataset.name,
            accuracy=fit.test_accuracy,
            hardware=unary_hw,
            depth=fit.depth,
        )
        return baseline, unary

    def run_exploration(
        self,
        dataset: Dataset,
        X_train_levels: np.ndarray,
        y_train: np.ndarray,
        X_test_levels: np.ndarray,
        y_test: np.ndarray,
    ) -> list[DesignPoint]:
        """Run the ADC-aware depth x tau sweep, one :class:`DesignSpec` per point.

        In memory and serial; each tau's depths are one depth family, trained
        once (:func:`~repro.core.design.evaluate_family`).  The cached,
        fanned-out sweep of the same points is
        :func:`~repro.analysis.experiments.run_benchmark_suite`.
        """
        arrays = (X_train_levels, y_train, X_test_levels, y_test, dataset.n_classes)
        by_tau = {}
        for tau in self.taus:
            family = [
                DesignSpec(
                    dataset.name, self.seed, depth, tau, self.resolution_bits,
                    technology=self.technology,
                    test_size=self.test_size,
                    training_sigma=self.training_sigma,
                    robustness_weight=self.robustness_weight,
                )
                for depth in self.depths
            ]
            points = evaluate_family(family, self.ppa_backend, arrays)
            by_tau[tau] = dict(zip(self.depths, points))
        return [by_tau[tau][depth] for depth, tau in grid_points(self.depths, self.taus)]

    def run_approximate_baseline(
        self,
        dataset: Dataset,
        baseline: ClassifierDesign,
        X_train_levels: np.ndarray,
        y_train: np.ndarray,
        X_test_levels: np.ndarray,
        y_test: np.ndarray,
        max_accuracy_loss: float = 0.01,
    ) -> ClassifierDesign:
        """Fit the approximate baseline [7] under the Table II loss budget."""
        design: BalaskasApproximateDesign = fit_balaskas_design(
            X_train_levels,
            y_train,
            X_test_levels,
            y_test,
            n_classes=dataset.n_classes,
            reference_accuracy=baseline.accuracy,
            reference_depth=baseline.depth,
            max_accuracy_loss=max_accuracy_loss,
            resolution_bits=self.resolution_bits,
            technology=self.technology,
            seed=self.seed,
        )
        return ClassifierDesign(
            name="approximate[7]",
            dataset=dataset.name,
            accuracy=design.accuracy,
            hardware=design.hardware_report(),
            depth=design.depth,
            extra={"per_feature_bits": design.per_feature_bits},
        )

    # ------------------------------------------------------------------ #
    # end-to-end
    # ------------------------------------------------------------------ #
    def run_reference(self, dataset: Dataset) -> CoDesignResult:
        """The dataset's reference designs, without the exploration.

        Baseline [2], its Fig. 4 unary re-implementation and (when enabled)
        the approximate baseline [7]: everything of :meth:`run` that does
        not depend on the depth x tau grid or the training knobs.  The
        result has an empty ``exploration``; :func:`select_designs`
        completes it.
        """
        X_train_levels, X_test_levels, y_train, y_test = self.prepare(dataset)
        baseline, unary = self.run_baseline(
            dataset, X_train_levels, y_train, X_test_levels, y_test
        )
        approximate = None
        if self.include_approximate_baseline:
            approximate = self.run_approximate_baseline(
                dataset, baseline, X_train_levels, y_train, X_test_levels, y_test
            )
        return CoDesignResult(
            dataset=dataset.name,
            baseline=baseline,
            unary_bespoke_adc=unary,
            exploration=[],
            selected={},
            approximate_baseline=approximate,
            metadata={
                "technology": self.technology,
                "abbreviation": dataset.metadata.get("abbreviation", dataset.name[:2].upper()),
                "seed": self.seed,
            },
        )

    def run(self, dataset: Dataset) -> CoDesignResult:
        """Run the complete co-design flow on one benchmark dataset."""
        X_train_levels, X_test_levels, y_train, y_test = self.prepare(dataset)
        return select_designs(
            self.run_reference(dataset),
            self.run_exploration(
                dataset, X_train_levels, y_train, X_test_levels, y_test
            ),
            self.accuracy_losses,
        )
