"""Process-variation modeling for printed comparators.

Printed EGFET devices exhibit large process variability, so a realistic
bespoke ADC must tolerate random comparator input-offset voltages: a
comparator nominally referenced at ``k / 2**N * Vdd`` actually trips at that
voltage plus a device-specific offset.  This module provides a Monte-Carlo
analysis of how such offsets propagate through the unary decision tree to
classification accuracy -- the variability extension the paper leaves to
future work, useful for deciding how much offset the printed comparator
design needs to guarantee.

The evaluation is fully vectorized: one ``(n_trials, n_comparators)`` offset
matrix is broadcast against the per-comparator thresholds, so every
Monte-Carlo trial and every sample is a single boolean-array comparison plus
one pass of the packed-uint64 label-logic kernel
(:class:`~repro.core.bitkernel.CompiledTreeKernel`; no per-sample Python
loops).  Trial batches optionally fan out across worker processes through
:class:`~repro.core.executor.Executor` -- results are bit-identical either
way because all offsets are drawn up front from one seeded stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.executor import get_executor
from repro.core.unary_tree import UnaryDecisionTree
from repro.mltrees.evaluation import accuracy_score
from repro.mltrees.split_search import normal_cdf
from repro.mltrees.tree import DecisionTree
from repro.pdk.egfet import EGFETTechnology, default_technology


@dataclass(frozen=True)
class ComparatorOffsetModel:
    """Gaussian input-offset model for printed comparators.

    Attributes
    ----------
    sigma_v:
        Standard deviation of the comparator input offset, in volts.
    mean_v:
        Systematic offset component, in volts (0 for a centered process).
    """

    sigma_v: float
    mean_v: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma_v < 0:
            raise ValueError("offset sigma must be >= 0")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` comparator offsets in volts."""
        if self.sigma_v == 0:
            return np.full(size, self.mean_v)
        return rng.normal(self.mean_v, self.sigma_v, size=size)

    def sample_matrix(
        self, rng: np.random.Generator, n_trials: int, size: int
    ) -> np.ndarray:
        """Draw an ``(n_trials, size)`` offset matrix, one row per trial.

        Rows are drawn sequentially with :meth:`sample` so the random stream
        is consumed exactly as the historical per-trial loop consumed it:
        ``sample_matrix(rng, t, c)[i]`` equals the ``i``-th of ``t``
        successive ``sample(rng, c)`` calls, which keeps seeded analyses
        bit-identical to the pre-vectorization implementation.
        """
        return np.stack([self.sample(rng, size) for _ in range(n_trials)])

    def flip_probability(self, margins: np.ndarray, vdd: float = 1.0) -> np.ndarray:
        """Analytic probability that a comparator digit flips, per margin.

        A comparator with nominal (normalized) threshold ``t`` sees a sample
        at value ``v``; its margin is ``m = v - t``.  The nominal digit is
        ``m >= 0`` and the offset-afflicted digit is ``m >= o / vdd``, so the
        digit flips exactly when the normalized offset ``o / vdd`` crosses
        the margin:

        * ``m >= 0``: flip iff ``o / vdd > m``, probability
          ``1 - Phi((m - mu) / s)``;
        * ``m < 0``: flip iff ``o / vdd <= m``, probability
          ``Phi((m - mu) / s)``

        with ``mu = mean_v / vdd`` and ``s = sigma_v / vdd``.  For the
        centered model (``mean_v = 0``) this collapses to
        ``Phi(-|m| * vdd / sigma_v)`` -- monotone in ``sigma_v``, symmetric
        in the margin sign, and exactly ``0`` at ``sigma_v = 0``.

        Parameters
        ----------
        margins:
            Margins in *normalized* full-scale units (any shape).
        vdd:
            Supply (full-scale) voltage converting the volt-domain offset
            statistics into normalized units.

        Returns
        -------
        np.ndarray
            Flip probabilities, same shape as ``margins``.
        """
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        margins = np.asarray(margins, dtype=float)
        mean = self.mean_v / vdd
        nominal_digit = margins >= 0
        if self.sigma_v == 0:
            # Deterministic offset `mean`: the flip is certain or impossible.
            offset_digit = margins >= mean
            return (nominal_digit != offset_digit).astype(float)
        # 1 - Phi(z) is evaluated as Phi(-z): the identity is exact and avoids
        # the catastrophic cancellation of subtracting a near-1 CDF value, so
        # this matches level_flip_matrix bit for bit at every margin.
        signed = np.where(nominal_digit, mean - margins, margins - mean)
        return normal_cdf(signed / (self.sigma_v / vdd))


def analytic_flip_probabilities(
    model: UnaryDecisionTree | DecisionTree,
    X: np.ndarray,
    sigma_v: float,
    technology: EGFETTechnology | None = None,
    mean_v: float = 0.0,
) -> np.ndarray:
    """Per-(sample, comparator) analytic digit-flip probabilities.

    The closed-form counterpart of the Monte-Carlo digit comparison inside
    :func:`simulate_offset_variation`: for every sample and every retained
    comparator of the unary tree, the probability that a Gaussian input
    offset of ``sigma_v`` volts flips that comparator's digit.  Columns are
    ordered like :attr:`UnaryDecisionTree.comparators`, so the matrix lines
    up with the offset matrices drawn by
    :meth:`ComparatorOffsetModel.sample_matrix` -- which is exactly what the
    property tests exploit to validate the model against the sampled path.

    Returns an ``(n_samples, n_comparators)`` float matrix.
    """
    technology = technology if technology is not None else default_technology()
    unary = model if isinstance(model, UnaryDecisionTree) else UnaryDecisionTree(model)
    X = np.asarray(X, dtype=float)
    if not unary.comparators:
        return np.zeros((X.shape[0], 0))
    values, nominal_thresholds = _comparator_values_and_thresholds(unary, X)
    margins = values - nominal_thresholds
    offset_model = ComparatorOffsetModel(sigma_v=sigma_v, mean_v=mean_v)
    return offset_model.flip_probability(margins, technology.vdd)


def _comparator_values_and_thresholds(
    unary: UnaryDecisionTree, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-comparator sample values and nominal thresholds, in digit order.

    The single source of the comparator convention -- values clipped to full
    scale, comparator ``(feature, level)`` trips at ``level / 2**N`` -- shared
    by the Monte-Carlo prediction path and the analytic flip model, so the
    two can never drift apart.

    Returns ``(values, thresholds)``: an ``(n_samples, n_comparators)``
    gather of the clipped inputs and the ``(n_comparators,)`` nominal
    normalized thresholds.
    """
    comparators = unary.comparators
    features = np.array([feature for feature, _ in comparators], dtype=np.intp)
    levels = np.array([level for _, level in comparators], dtype=float)
    values = np.clip(np.asarray(X, dtype=float)[:, features], 0.0, 1.0)
    return values, levels / 2 ** unary.resolution_bits


def canonical_training_knobs(
    training_sigma: float, robustness_weight: float
) -> tuple[float, float]:
    """Canonical form of the offset-aware-training knobs for cache keys.

    The expected-flip penalty is inert unless *both* knobs are positive --
    the trainer then grows exactly the nominal tree -- so every inert
    spelling collapses to ``(0.0, 0.0)`` and nominal requests alias one
    entry no matter how they were phrased.  Applied by
    :class:`~repro.core.design.DesignSpec`, the one cache identity of a
    trained design point.
    """
    if training_sigma == 0.0 or robustness_weight == 0.0:
        return 0.0, 0.0
    return float(training_sigma), float(robustness_weight)


@dataclass(frozen=True)
class VariationAnalysis:
    """Outcome of a Monte-Carlo comparator-offset study.

    Attributes
    ----------
    nominal_accuracy:
        Accuracy with ideal (offset-free) comparators.
    mean_accuracy / std_accuracy / min_accuracy:
        Statistics of the per-trial accuracies under random offsets.
    accuracies:
        Accuracy of every Monte-Carlo trial.
    sigma_v:
        Offset sigma the analysis was run at.
    """

    nominal_accuracy: float
    mean_accuracy: float
    std_accuracy: float
    min_accuracy: float
    accuracies: tuple[float, ...]
    sigma_v: float

    @property
    def mean_accuracy_drop(self) -> float:
        """Average accuracy lost to comparator offsets."""
        return self.nominal_accuracy - self.mean_accuracy

    @property
    def worst_case_drop(self) -> float:
        """Worst-case accuracy lost across the Monte-Carlo trials."""
        return self.nominal_accuracy - self.min_accuracy


def _predict_with_offsets(
    unary: UnaryDecisionTree,
    X: np.ndarray,
    offset_matrix: np.ndarray,
    vdd: float,
) -> np.ndarray:
    """Predict classes for every (trial, sample) pair under offset voltages.

    Comparator ``(feature, level)`` of trial ``t`` fires when the
    (normalized) analog input exceeds ``level / 2**N + offsets[t, c] / vdd``.

    Parameters
    ----------
    unary:
        The unary decision tree under analysis.
    X:
        ``(n_samples, n_features)`` matrix of normalized analog samples.
    offset_matrix:
        ``(n_trials, n_comparators)`` offsets in volts, columns ordered like
        :attr:`UnaryDecisionTree.comparators`.
    vdd:
        Supply (full-scale) voltage of the ADCs.

    Returns
    -------
    np.ndarray
        ``(n_trials, n_samples)`` predicted class labels.
    """
    X = np.asarray(X, dtype=float)
    offset_matrix = np.atleast_2d(np.asarray(offset_matrix, dtype=float))
    comparators = unary.comparators
    if offset_matrix.shape[1] != len(comparators):
        raise ValueError(
            f"offset matrix has {offset_matrix.shape[1]} columns, expected one "
            f"per retained comparator ({len(comparators)})"
        )
    values, nominal_thresholds = _comparator_values_and_thresholds(unary, X)
    thresholds = nominal_thresholds + offset_matrix / vdd  # (trials, comparators)
    # Compared comparator-major, so the (trial x sample, comparator) digit
    # matrix is a Fortran-ordered view the kernel packs without a copy.
    digits = values.T[:, np.newaxis, :] >= thresholds.T[:, :, np.newaxis]
    n_trials, n_samples = offset_matrix.shape[0], X.shape[0]
    flat = digits.reshape(len(comparators), n_trials * n_samples).T
    return unary.predict_digit_matrix(flat).reshape(n_trials, n_samples)


def _trial_batch_accuracies(
    unary: UnaryDecisionTree,
    X: np.ndarray,
    y: np.ndarray,
    offset_batch: np.ndarray,
    vdd: float,
) -> list[float]:
    """Top-level (picklable) executor job: accuracies of one trial batch."""
    predictions = _predict_with_offsets(unary, X, offset_batch, vdd)
    return [accuracy_score(y, row) for row in predictions]


def simulate_offset_variation(
    model: UnaryDecisionTree | DecisionTree,
    X: np.ndarray,
    y: np.ndarray,
    sigma_v: float,
    n_trials: int = 50,
    technology: EGFETTechnology | None = None,
    seed: int = 0,
    jobs: int | None = None,
) -> VariationAnalysis:
    """Monte-Carlo accuracy under Gaussian comparator input offsets.

    Parameters
    ----------
    model:
        Trained decision tree (or its unary translation) to analyze.
    X, y:
        Normalized evaluation samples and labels.
    sigma_v:
        Comparator offset standard deviation in volts (printed comparators
        are typically in the tens-of-millivolt range).
    n_trials:
        Number of Monte-Carlo process instances.
    technology:
        Supplies the supply voltage (full-scale range) of the ADCs.
    seed:
        RNG seed; the analysis is reproducible and independent of ``jobs``.
    jobs:
        Worker processes to fan trial batches over (``None``/``1``: in
        process, ``0``: one per CPU).  All offsets are drawn up front, so
        parallel runs are bit-identical to serial ones.
    """
    if n_trials < 1:
        raise ValueError("at least one Monte-Carlo trial is required")
    technology = technology if technology is not None else default_technology()
    unary = model if isinstance(model, UnaryDecisionTree) else UnaryDecisionTree(model)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)

    offset_model = ComparatorOffsetModel(sigma_v=sigma_v)
    rng = np.random.default_rng(seed)
    comparators = unary.comparators

    nominal = accuracy_score(y, unary.predict(X))
    if not comparators:
        # A single-leaf tree has no comparators and is immune to offsets.
        accuracies = tuple([nominal] * n_trials)
        return VariationAnalysis(
            nominal_accuracy=nominal,
            mean_accuracy=nominal,
            std_accuracy=0.0,
            min_accuracy=nominal,
            accuracies=accuracies,
            sigma_v=sigma_v,
        )

    offsets = offset_model.sample_matrix(rng, n_trials, len(comparators))
    with get_executor(jobs) as executor:
        if executor.jobs > 1 and n_trials > 1:
            batches = np.array_split(offsets, min(executor.jobs, n_trials))
            tasks = [
                (unary, X, y, batch, technology.vdd)
                for batch in batches
                if batch.shape[0]
            ]
            accuracies = [
                accuracy
                for batch_accuracies in executor.map(_trial_batch_accuracies, tasks)
                for accuracy in batch_accuracies
            ]
        else:
            accuracies = _trial_batch_accuracies(unary, X, y, offsets, technology.vdd)

    accuracies_array = np.asarray(accuracies)
    return VariationAnalysis(
        nominal_accuracy=nominal,
        mean_accuracy=float(accuracies_array.mean()),
        std_accuracy=float(accuracies_array.std()),
        min_accuracy=float(accuracies_array.min()),
        accuracies=tuple(float(a) for a in accuracies),
        sigma_v=sigma_v,
    )


def offset_tolerance_sweep(
    model: UnaryDecisionTree | DecisionTree,
    X: np.ndarray,
    y: np.ndarray,
    sigmas_v: tuple[float, ...] = (0.0, 0.01, 0.02, 0.03, 0.05),
    n_trials: int = 30,
    technology: EGFETTechnology | None = None,
    seed: int = 0,
    jobs: int | None = None,
) -> list[VariationAnalysis]:
    """Run :func:`simulate_offset_variation` over a grid of offset sigmas."""
    return [
        simulate_offset_variation(
            model, X, y, sigma_v, n_trials=n_trials, technology=technology,
            seed=seed, jobs=jobs,
        )
        for sigma_v in sigmas_v
    ]
