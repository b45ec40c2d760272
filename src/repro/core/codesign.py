"""The paper's flow on one benchmark, as a result record and two functions.

For one benchmark dataset the evaluation section compares:

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

:func:`reference_designs` builds stages 1, 2 and 4 on a
:class:`~repro.core.design.DesignSpec`'s split; the exploration's points are
:class:`~repro.core.design.DesignSpec` evaluations; :func:`select_designs`
completes the :class:`CoDesignResult`.
:func:`~repro.analysis.experiments.run_benchmark_suite` composes the three,
with or without a result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.design import DesignPoint, DesignSpec, proposed_hardware_report
from repro.core.exploration import select_best_design
from repro.core.metrics import ClassifierDesign, ReductionReport, compare_designs
from repro.core.power_budget import SelfPowerAnalysis, analyze_self_power


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
    """Complete a :func:`reference_designs` result.

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


def reference_designs(
    spec: DesignSpec,
    include_approximate_baseline: bool,
    ppa_backend=None,
    twin: CoDesignResult | None = None,
) -> CoDesignResult:
    """Baseline [2], its unary re-implementation and optionally [7], on ``spec``'s split.

    They depend on the spec's benchmark, seed, resolution, technology and
    split, never on its depth, tau or training knobs
    (:meth:`DesignSpec.reference_key`).  ``ppa_backend`` costs the unary
    design's digital logic; the baseline [2] comparator tree, the reference
    the reductions are measured against, keeps the analytic model.  The
    approximate baseline [7] gets Table II's 1 % loss budget.  ``twin`` is
    ``reference_designs(spec, False, ppa_backend)`` when the caller already
    holds it: the Table II reference is then that result plus [7], fitted
    from its baseline's accuracy and depth.  The result's ``exploration``
    is empty; :func:`select_designs` completes it.
    """
    from repro.baselines.balaskas import fit_balaskas_design
    from repro.baselines.mubarik import BaselineBespokeDesign
    from repro.mltrees.cart import fit_baseline_tree

    data = spec.data()
    technology = spec.technology
    levels = (data.X_train_levels, data.y_train, data.X_test_levels, data.y_test)
    knobs = dict(n_classes=data.n_classes, resolution_bits=spec.resolution_bits, seed=spec.seed)
    if twin is None:
        name = data.dataset.name
        fit = fit_baseline_tree(*levels, **knobs)
        baseline = ClassifierDesign(
            "baseline[2]", name, fit.test_accuracy,
            BaselineBespokeDesign(fit.tree, technology, name=f"baseline[2] {name}").hardware_report(),
            depth=fit.depth,
        )
        unary = ClassifierDesign(
            "unary+bespokeADC (ADC-unaware model)", name, fit.test_accuracy,
            proposed_hardware_report(
                fit.tree, technology, name=f"unary+bespokeADC {name}", ppa_backend=ppa_backend
            ),
            depth=fit.depth,
        )
        twin = CoDesignResult(
            dataset=name,
            baseline=baseline,
            unary_bespoke_adc=unary,
            exploration=[],
            selected={},
            metadata={
                "technology": technology,
                "abbreviation": data.dataset.metadata.get("abbreviation", name[:2].upper()),
                "seed": spec.seed,
            },
        )
    if not include_approximate_baseline:
        return twin
    design = fit_balaskas_design(
        *levels, reference_accuracy=twin.baseline.accuracy,
        reference_depth=twin.baseline.depth, max_accuracy_loss=0.01,
        technology=technology, **knobs,
    )
    # the twin's own name string: a stored twin's strings are not the
    # dataset's, and pickle writes a shared string once
    approximate = ClassifierDesign(
        "approximate[7]", twin.dataset, design.accuracy, design.hardware_report(),
        depth=design.depth, extra={"per_feature_bits": design.per_feature_bits},
    )
    return replace(twin, approximate_baseline=approximate)
