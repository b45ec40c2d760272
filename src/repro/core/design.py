"""One design point, one identity: :class:`DesignSpec`.

A design point of the co-design flow is one ADC-aware tree -- trained at one
(depth, tau) on one benchmark's split -- with its test accuracy and its
hardware cost.  It is fully determined by a few configuration fields, and
:class:`DesignSpec` names them once:

* :meth:`DesignSpec.key` is the point's only cache identity (a
  :class:`DesignPoint` entry of the :class:`~repro.core.store.ResultStore`),
  and :meth:`DesignSpec.variation_key` derives the identity of its
  comparator-offset Monte-Carlo summary at one (sigma, trials);
* :func:`evaluate_family` is the only recipe that trains, scores and costs
  points: a *depth family* -- specs that differ only in ``depth`` -- costs
  one fit, because each depth's tree is the deepest tree cut at that depth.
  :meth:`DesignSpec.evaluate` is its one-spec case, :meth:`DesignSpec.train`
  the tree-only half of it.

The suite sweep, sharded work units, search trials, Monte-Carlo units, the
model registry and the CLI all go through it, so two entry points asking
for the same point can never train different trees or address different
cache entries.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.metrics import HardwareReport
from repro.core.store import content_digest, make_key
from repro.core.variation import (
    VariationAnalysis,
    canonical_training_knobs,
    simulate_offset_variation,
)
from repro.datasets.registry import canonical_name, load_dataset
from repro.pdk.egfet import EGFETTechnology, default_technology

if TYPE_CHECKING:
    import numpy as np

    from repro.core.adc_aware_training import ADCAwareTrainer
    from repro.core.unary_tree import UnaryDecisionTree
    from repro.datasets.base import Dataset
    from repro.mltrees.tree import DecisionTree


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated point of the depth x tau design space.

    ``robustness`` is ``None`` after the nominal sweep; the variation-aware
    pass (:func:`~repro.analysis.experiments.run_robust_exploration`) fills
    it with the point's comparator-offset Monte-Carlo summary, which
    surfaces as the ``mean_accuracy_drop`` / ``worst_case_drop`` columns of
    the analysis tables.
    """

    dataset: str
    depth: int
    tau: float
    accuracy: float
    hardware: HardwareReport
    tree: DecisionTree = field(repr=False)
    robustness: VariationAnalysis | None = field(default=None, repr=False)

    @property
    def total_area_mm2(self) -> float:
        """Total area of the design point."""
        return self.hardware.total_area_mm2

    @property
    def total_power_uw(self) -> float:
        """Total power of the design point in uW."""
        return self.hardware.total_power_uw

    @property
    def mean_accuracy_drop(self) -> float | None:
        """Average accuracy lost to comparator offsets (None before the pass)."""
        return None if self.robustness is None else self.robustness.mean_accuracy_drop

    @property
    def worst_case_drop(self) -> float | None:
        """Worst-case accuracy lost to comparator offsets (None before the pass)."""
        return None if self.robustness is None else self.robustness.worst_case_drop

    def with_robustness(self, analysis: VariationAnalysis) -> "DesignPoint":
        """Copy of this point carrying a Monte-Carlo robustness summary."""
        return replace(self, robustness=analysis)


def proposed_hardware_report(
    tree: DecisionTree,
    technology: EGFETTechnology | None = None,
    name: str = "proposed",
    ppa_backend=None,
) -> HardwareReport:
    """Hardware report of a tree implemented with the proposed architecture.

    The tree is translated into the parallel unary architecture, its
    two-level label logic is synthesized and costed, and every used input
    receives a bespoke ADC retaining only the required unary digits.

    ``ppa_backend`` selects where the *digital* costs come from (default:
    the analytic cell-count model, bit-identical to the pre-backend code
    path; see :mod:`repro.circuits.ppa`).  The bespoke-ADC front end is an
    analog block outside any digital PPA flow, so its costs always come from
    the behavioral ADC model.
    """
    from repro.core.unary_tree import translate

    return _unary_hardware_report(translate(tree), technology, name, ppa_backend)


def _unary_hardware_report(
    unary: UnaryDecisionTree,
    technology: EGFETTechnology | None = None,
    name: str = "proposed",
    ppa_backend=None,
) -> HardwareReport:
    """:func:`proposed_hardware_report` of an already translated unary tree.

    Callers that keep using ``unary`` (the datasheet) reuse its minimized
    label logic instead of translating the tree a second time.
    """
    from repro.core.bespoke_adc import build_bespoke_frontend

    technology = technology if technology is not None else default_technology()
    digital = unary.digital_report(technology, ppa_backend=ppa_backend)
    if unary.n_inputs > 0:
        frontend = build_bespoke_frontend(unary, technology)
        adc_area, adc_power = frontend.area_mm2, frontend.power_uw
        n_adc_comparators = frontend.n_comparators
    else:  # degenerate single-leaf tree: nothing to digitize
        adc_area, adc_power, n_adc_comparators = 0.0, 0.0, 0
    return HardwareReport(
        name=name,
        adc_area_mm2=adc_area,
        adc_power_uw=adc_power,
        digital_area_mm2=digital.area_mm2,
        digital_power_uw=digital.power_uw,
        n_inputs=unary.n_inputs,
        n_tree_comparators=0,  # the unary architecture removes all tree comparators
        n_adc_comparators=n_adc_comparators,
    )


@dataclass(frozen=True)
class SplitData:
    """A benchmark's seeded train/test split, analog and quantized."""

    dataset: Dataset
    X_train: np.ndarray
    X_test: np.ndarray
    y_train: np.ndarray
    y_test: np.ndarray
    X_train_levels: np.ndarray
    X_test_levels: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.dataset.n_classes


@lru_cache(maxsize=1)
def split_data(
    dataset: str, seed: int = 0, test_size: float = 0.3, resolution_bits: int = 4
) -> SplitData:
    """Load, split and quantize one benchmark (memoized per process).

    Every design point of a sweep shares its benchmark's split, so the 49
    points of the paper grid load and quantize the data once.  Sweeps visit
    benchmarks one after another, so one entry suffices.
    """
    from repro.mltrees.evaluation import train_test_split
    from repro.mltrees.quantize import quantize_dataset

    data = load_dataset(dataset, seed=seed)
    X_train, X_test, y_train, y_test = train_test_split(
        data.X, data.y, test_size=test_size, seed=seed
    )
    return SplitData(
        dataset=data,
        X_train=X_train,
        X_test=X_test,
        y_train=y_train,
        y_test=y_test,
        X_train_levels=quantize_dataset(X_train, resolution_bits),
        X_test_levels=quantize_dataset(X_test, resolution_bits),
    )


#: The technology of specs that name none: one shared (immutable) instance.
_default_technology = lru_cache(maxsize=1)(default_technology)


@lru_cache(maxsize=16)
def _technology_id(technology: EGFETTechnology) -> str:
    """Digest of a technology's full canonical form, computed once per corner.

    Canonicalizing a technology walks its whole cell library; a 49-point
    sweep keys the same corner dozens of times.
    """
    return content_digest(technology=technology)


@dataclass(frozen=True)
class DesignSpec:
    """Everything that determines one trained, scored and costed design point.

    Fields are canonicalized on construction: registered dataset names and
    paper abbreviations resolve to the canonical name (ad-hoc names stay
    verbatim), and the offset-aware training knobs collapse to ``(0, 0)``
    whenever the expected-flip penalty is inert
    (:func:`~repro.core.variation.canonical_training_knobs`).  Equal
    requests therefore compare, hash and key equal however they were
    spelled.  ``training_sigma`` is in volts, like every sigma in the
    repository; the trainer receives it normalized by the supply voltage.
    """

    dataset: str
    seed: int = 0
    depth: int = 4
    tau: float = 0.01
    resolution_bits: int = 4
    technology: EGFETTechnology = field(default_factory=_default_technology, repr=False)
    test_size: float = 0.3
    training_sigma: float = 0.0
    robustness_weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("tau", "test_size", "training_sigma", "robustness_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 < self.test_size < 1.0:
            raise ValueError("test_size must lie strictly between 0 and 1")
        if self.training_sigma < 0:
            raise ValueError("training_sigma must be >= 0")
        if self.robustness_weight < 0:
            raise ValueError("robustness_weight must be >= 0")
        try:
            dataset = canonical_name(self.dataset)
        except KeyError:
            dataset = self.dataset
        training_sigma, robustness_weight = canonical_training_knobs(
            float(self.training_sigma), float(self.robustness_weight)
        )
        for name, value in (
            ("dataset", dataset),
            ("seed", int(self.seed)),
            ("depth", int(self.depth)),
            ("tau", float(self.tau)),
            ("resolution_bits", int(self.resolution_bits)),
            ("test_size", float(self.test_size)),
            ("training_sigma", training_sigma),
            ("robustness_weight", robustness_weight),
        ):
            object.__setattr__(self, name, value)
        # The trainer's own checks, in its words, without importing it.
        if self.depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.resolution_bits < 1:
            raise ValueError("resolution_bits must be at least 1")
        if self.tau < 0:
            raise ValueError("the Gini tolerance tau must be >= 0")

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def family(self) -> tuple:
        """Every field but ``depth``: the specs :func:`evaluate_family` trains together."""
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != "depth")

    @property
    def label(self) -> str:
        """Human-readable name used in plans and error listings."""
        return f"{self.dataset}[d={self.depth},tau={self.tau:g}]"

    def _key_fields(self) -> dict:
        key_fields = {f.name: getattr(self, f.name) for f in fields(self)}
        key_fields["technology"] = _technology_id(self.technology)
        return key_fields

    def key(self) -> str:
        """Store key of the point's :class:`DesignPoint` (code-version scoped)."""
        return make_key(kind="design_point", **self._key_fields())

    def variation_key(self, sigma_v: float, n_trials: int) -> str:
        """Store key of the point's offset Monte-Carlo summary."""
        if not (math.isfinite(sigma_v) and sigma_v >= 0):
            raise ValueError(f"sigma_v must be a finite number >= 0, got {sigma_v!r}")
        return make_key(
            kind="offset_variation",
            **self._key_fields(),
            sigma_v=float(sigma_v),
            n_trials=int(n_trials),
        )

    def reference_key(self, include_approximate_baseline: bool) -> str:
        """Store key of the benchmark's reference designs on this split.

        Baseline [2], its unary re-implementation and (for the Table II
        variant) the approximate baseline [7] depend on the benchmark, seed,
        ADC resolution, technology and split -- not on the depth x tau grid
        or the training knobs -- so every grid point of a suite shares one
        such entry.
        """
        key_fields = self._key_fields()
        for name in ("depth", "tau", "training_sigma", "robustness_weight"):
            del key_fields[name]
        return make_key(
            kind="suite_reference",
            **key_fields,
            include_approximate_baseline=bool(include_approximate_baseline),
        )

    # ------------------------------------------------------------------ #
    # the recipe
    # ------------------------------------------------------------------ #
    def trainer(self) -> ADCAwareTrainer:
        """The ADC-aware trainer of this point."""
        from repro.core.adc_aware_training import ADCAwareTrainer

        return ADCAwareTrainer(
            max_depth=self.depth,
            gini_threshold=self.tau,
            resolution_bits=self.resolution_bits,
            seed=self.seed,
            training_sigma=self.training_sigma / self.technology.vdd,
            robustness_weight=self.robustness_weight,
        )

    def data(self) -> SplitData:
        """The benchmark split this point trains and scores on."""
        return split_data(self.dataset, self.seed, self.test_size, self.resolution_bits)

    def train(self) -> DecisionTree:
        """Train the point's tree on its benchmark split."""
        data = self.data()
        return self.trainer().fit(data.X_train_levels, data.y_train, data.n_classes)

    def evaluate(self, ppa_backend=None) -> DesignPoint:
        """Train, score and cost the point on its benchmark split."""
        (point,) = evaluate_family([self], ppa_backend)
        return point

    def simulate(
        self,
        sigma_v: float,
        n_trials: int,
        tree: DecisionTree | None = None,
    ) -> VariationAnalysis:
        """Monte-Carlo the point's test accuracy under comparator offsets.

        ``tree`` is the point's trained tree when the caller already holds
        it (it is retrained otherwise); training is deterministic, so the
        analysis is the same either way.
        """
        data = self.data()
        return simulate_offset_variation(
            tree if tree is not None else self.train(),
            data.X_test,
            data.y_test,
            sigma_v,
            n_trials=n_trials,
            technology=self.technology,
            seed=self.seed,
        )


def evaluate_family(specs: Sequence[DesignSpec], ppa_backend=None) -> list[DesignPoint]:
    """Train, score and cost a depth family of design points with one fit.

    The specs must share their :attr:`DesignSpec.family` (differ only in
    ``depth``).  The ADC-aware trainer grows breadth-first, so a depth-d
    tree is the deepest spec's tree cut at d
    (:meth:`~repro.mltrees.tree.DecisionTree.truncated`): the family is
    trained once, at its deepest spec, and every point is scored and costed
    on its own cut.  Returns the points in ``specs`` order.
    """
    if len({spec.family for spec in specs}) > 1:
        raise ValueError("the specs of a depth family may differ only in depth")
    from repro.mltrees.evaluation import evaluate_tree_accuracy

    deepest = max(specs, key=lambda spec: spec.depth)
    data = deepest.data()
    tree = deepest.train()
    cuts = [tree.truncated(spec.depth) for spec in specs]
    return [
        DesignPoint(
            dataset=spec.dataset,
            depth=spec.depth,
            tau=spec.tau,
            accuracy=evaluate_tree_accuracy(cut, data.X_test_levels, data.y_test),
            hardware=proposed_hardware_report(
                cut,
                spec.technology,
                name=f"codesign[d={spec.depth},tau={spec.tau:g}]",
                ppa_backend=ppa_backend,
            ),
            tree=cut,
        )
        for spec, cut in zip(specs, cuts)
    ]
