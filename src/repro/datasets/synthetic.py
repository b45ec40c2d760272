"""Synthetic dataset generators and the recipe of each paper benchmark.

Three generators cover the benchmark suite:

* :func:`make_classification_blobs` -- Gaussian class clusters in an
  informative subspace plus pure-noise nuisance features and optional label
  noise.  Class separation, noise and label-noise fraction control how much
  accuracy a small quantized decision tree can reach, which is how each
  stand-in is calibrated to its UCI original.
* :func:`make_ordinal_dataset` -- classes obtained by thresholding a noisy
  latent score (weighted sum of the informative features).  This mimics
  quality-rating datasets such as WhiteWine, where classes are ordered,
  heavily imbalanced and overlap strongly (hence the low ~53 % tree accuracy
  reported in the paper).
* :func:`make_balance_scale` -- the UCI Balance-Scale dataset itself, a
  complete factorial labelled by a public torque rule.

:data:`RECIPES` names, per benchmark, the generator and its arguments, the
feature and class names and the description.  Each stand-in matches its UCI
original's sample, feature and class counts and approximate baseline tree
accuracy; :func:`repro.datasets.registry.load_dataset` builds the
:class:`~repro.datasets.base.Dataset` from a recipe.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

import numpy as np

from repro.datasets.normalize import normalize_unit_range


def _apply_label_noise(y: np.ndarray, n_classes: int, fraction: float, rng) -> np.ndarray:
    """Reassign a random ``fraction`` of labels to a different random class."""
    if fraction <= 0:
        return y
    y = y.copy()
    n_flip = int(round(len(y) * fraction))
    if n_flip == 0:
        return y
    victims = rng.choice(len(y), size=n_flip, replace=False)
    offsets = rng.integers(1, n_classes, size=n_flip)
    y[victims] = (y[victims] + offsets) % n_classes
    return y


def make_classification_blobs(
    n_samples: int,
    n_features: int,
    n_classes: int,
    n_informative: int | None = None,
    class_sep: float = 2.0,
    noise_scale: float = 1.0,
    label_noise: float = 0.0,
    class_weights: list[float] | None = None,
    clusters_per_class: int = 1,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-cluster classification data normalized to ``[0, 1]``.

    Parameters
    ----------
    n_samples, n_features, n_classes:
        Dataset dimensions.
    n_informative:
        Number of features carrying class information (the rest are noise);
        defaults to all features.
    class_sep:
        Distance scale between class centers -- larger means easier.
    noise_scale:
        Standard deviation of the within-class spread.
    label_noise:
        Fraction of labels flipped to a random other class.
    class_weights:
        Optional relative class frequencies (normalized internally).
    clusters_per_class:
        Number of Gaussian modes per class.  Values above 1 create
        multi-modal classes whose boundaries need deeper trees, mimicking the
        benchmark datasets where the paper's baseline grows close to the
        depth limit (WhiteWine, Cardio, Pendigits).
    seed:
        RNG seed; generation is fully deterministic.

    Returns
    -------
    (X, y):
        Feature matrix in ``[0, 1]`` and integer labels.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if n_features < 1:
        raise ValueError("need at least one feature")
    if clusters_per_class < 1:
        raise ValueError("clusters_per_class must be >= 1")
    if n_informative is None:
        n_informative = n_features
    n_informative = min(n_informative, n_features)
    rng = np.random.default_rng(seed)

    if class_weights is None:
        weights = np.full(n_classes, 1.0 / n_classes)
    else:
        weights = np.asarray(class_weights, dtype=float)
        if len(weights) != n_classes or np.any(weights < 0):
            raise ValueError("class_weights must be non-negative, one per class")
        weights = weights / weights.sum()

    y = rng.choice(n_classes, size=n_samples, p=weights)
    centers = rng.normal(
        0.0, class_sep, size=(n_classes, clusters_per_class, n_informative)
    )
    cluster_assignment = rng.integers(0, clusters_per_class, size=n_samples)
    X = np.empty((n_samples, n_features))
    X[:, :n_informative] = centers[y, cluster_assignment] + rng.normal(
        0.0, noise_scale, size=(n_samples, n_informative)
    )
    if n_features > n_informative:
        X[:, n_informative:] = rng.normal(
            0.0, 1.0, size=(n_samples, n_features - n_informative)
        )
    # Mix the informative directions so single features are informative but
    # not perfectly separating (closer to real sensor data).
    mixing = rng.normal(0.0, 0.15, size=(n_informative, n_informative))
    np.fill_diagonal(mixing, 1.0)
    X[:, :n_informative] = X[:, :n_informative] @ mixing

    y = _apply_label_noise(y, n_classes, label_noise, rng)
    return normalize_unit_range(X), y.astype(np.int64)


def make_ordinal_dataset(
    n_samples: int,
    n_features: int,
    n_classes: int,
    n_informative: int | None = None,
    noise_scale: float = 1.0,
    label_noise: float = 0.0,
    class_balance_temperature: float = 1.0,
    class_concentration: float = 4.0,
    nonlinearity: float = 0.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Ordinal-label data: classes are bands of a noisy latent score.

    The latent score is a random weighted sum of the informative features
    (optionally with pairwise interaction terms, see ``nonlinearity``);
    class boundaries are placed at quantiles shaped by
    ``class_balance_temperature`` (1.0 gives a centre-heavy, imbalanced
    distribution similar to wine-quality ratings; 0 gives equal bands) and
    ``class_concentration`` (larger values make the central classes more
    dominant).
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if class_concentration <= 0:
        raise ValueError("class_concentration must be positive")
    if n_informative is None:
        n_informative = n_features
    n_informative = min(n_informative, n_features)
    rng = np.random.default_rng(seed)

    X = rng.normal(0.0, 1.0, size=(n_samples, n_features))
    weights = rng.normal(1.0, 0.3, size=n_informative)
    score = X[:, :n_informative] @ weights
    if nonlinearity > 0 and n_informative >= 2:
        # Pairwise interactions make the label boundary axis-unaligned and
        # curved, so deeper trees keep improving accuracy (as on WhiteWine).
        n_pairs = min(n_informative, 6)
        pairs = rng.choice(n_informative, size=(n_pairs, 2), replace=True)
        interaction = np.sum(
            X[:, pairs[:, 0]] * X[:, pairs[:, 1]], axis=1
        )
        score = score + nonlinearity * np.std(score) * interaction / max(
            np.std(interaction), 1e-9
        )
    score = score + rng.normal(0.0, noise_scale * np.std(score), size=n_samples)

    # Class boundaries: blend equal-width quantiles with a centre-heavy
    # (roughly Gaussian) allocation controlled by the temperature.
    uniform_edges = np.linspace(0.0, 1.0, n_classes + 1)[1:-1]
    sigma = n_classes / class_concentration
    gaussian_mass = np.exp(
        -0.5 * ((np.arange(n_classes) - (n_classes - 1) / 2.0) / sigma) ** 2
    )
    gaussian_mass = gaussian_mass / gaussian_mass.sum()
    gaussian_edges = np.cumsum(gaussian_mass)[:-1]
    t = np.clip(class_balance_temperature, 0.0, 1.0)
    edges = (1 - t) * uniform_edges + t * gaussian_edges
    boundaries = np.quantile(score, edges)
    y = np.searchsorted(boundaries, score).astype(np.int64)

    y = _apply_label_noise(y, n_classes, label_noise, rng)
    return normalize_unit_range(X), y


def make_balance_scale(seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The UCI Balance-Scale dataset, regenerated exactly from its rule.

    Every combination of left weight, left distance, right weight and right
    distance in ``{1..5}``, normalized onto ``[0, 1]`` and labelled by the sign
    of the torque difference ``LW*LD - RW*RD``: 0 tips left, 1 balances, 2 tips
    right.  ``seed`` is unused: the dataset is deterministic.
    """
    del seed
    grid = np.array(list(itertools.product(range(1, 6), repeat=4)), dtype=float)
    lw, ld, rw, rd = grid.T
    y = (1 - np.sign(lw * ld - rw * rd)).astype(np.int64)
    return (grid - 1.0) / 4.0, y


class Recipe(NamedTuple):
    """How one benchmark is generated, and what its columns and classes are."""

    generator: Callable[..., tuple[np.ndarray, np.ndarray]]
    kwargs: dict
    feature_names: list[str]
    class_names: list[str]
    description: str
    #: Added to the seed before drawing.
    seed_offset: int = 0
    #: New label of each drawn class, when the benchmark merges classes.
    merge: tuple[int, ...] | None = None
    #: False for a benchmark regenerated exactly rather than approximated.
    synthetic_standin: bool = True

    def generate(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """The benchmark's ``(X, y)`` at ``seed``."""
        X, y = self.generator(seed=seed + self.seed_offset, **self.kwargs)
        if self.merge is not None:
            y = np.asarray(self.merge, dtype=np.int64)[y]
        return X, y


#: Both vertebral variants draw the 3-class data (100 normal, 60 disk hernia,
#: 150 spondylolisthesis of 310 patients).
_VERTEBRAL = dict(
    n_samples=310, n_features=6, n_classes=3, n_informative=6, class_sep=2.0,
    noise_scale=1.05, label_noise=0.06, class_weights=[100 / 310, 60 / 310, 150 / 310],
)
_VERTEBRAL_FEATURES = [
    "pelvic_incidence", "pelvic_tilt", "lumbar_lordosis_angle", "sacral_slope",
    "pelvic_radius", "grade_of_spondylolisthesis",
]

#: The recipe of each benchmark, in the paper's Table I order.
RECIPES: dict[str, Recipe] = {
    # Ordinal, centre-heavy quality ratings only weakly predictable from the
    # features: strong latent and label noise land near the paper's 52.8 %.
    "whitewine": Recipe(
        make_ordinal_dataset,
        dict(n_samples=4898, n_features=11, n_classes=7, n_informative=10,
             noise_scale=0.30, label_noise=0.02, class_balance_temperature=1.0,
             class_concentration=9.0, nonlinearity=0.7),
        ["fixed_acidity", "volatile_acidity", "citric_acid", "residual_sugar",
         "chlorides", "free_sulfur_dioxide", "total_sulfur_dioxide", "density",
         "ph", "sulphates", "alcohol"],
        [f"quality_{q}" for q in range(3, 10)],
        "Synthetic stand-in for UCI white wine quality: ordinal ratings from "
        "a noisy latent score over 11 sensor features.",
    ),
    # Trees do well (90.6 %): moderately separated clusters, 78/14/8 NSP split.
    "cardio": Recipe(
        make_classification_blobs,
        dict(n_samples=2126, n_features=21, n_classes=3, n_informative=14,
             class_sep=1.8, noise_scale=1.0, label_noise=0.04,
             class_weights=[0.78, 0.14, 0.08], clusters_per_class=3),
        ["baseline_value", "accelerations", "fetal_movement", "uterine_contractions",
         "light_decelerations", "severe_decelerations", "prolonged_decelerations",
         "abnormal_short_term_variability", "mean_short_term_variability",
         "pct_abnormal_long_term_variability", "mean_long_term_variability",
         "histogram_width", "histogram_min", "histogram_max", "histogram_peaks",
         "histogram_zeroes", "histogram_mode", "histogram_mean", "histogram_median",
         "histogram_variance", "histogram_tendency"],
        ["normal", "suspect", "pathologic"],
        "Synthetic stand-in for UCI cardiotocography: 3 imbalanced NSP classes "
        "over 21 fetal heart-rate features.",
    ),
    # Few samples, a dominant "normal" class and a long tail of rare types in
    # a wide noisy feature vector: trees overfit, as at the paper's 62.7 %.
    "arrhythmia": Recipe(
        make_classification_blobs,
        dict(n_samples=452, n_features=32, n_classes=13, n_informative=10,
             class_sep=1.45, noise_scale=1.25, label_noise=0.08,
             class_weights=[0.54] + [0.46 / 12] * 12),
        [f"ecg_feature_{i}" for i in range(32)],
        ["normal"] + [f"arrhythmia_class_{i}" for i in range(1, 13)],
        "Synthetic stand-in for UCI arrhythmia: 13 highly imbalanced classes, "
        "452 samples, informative subspace inside a wider noisy ECG feature set.",
    ),
    # A complete factorial of a public rule: the one benchmark reproduced exactly.
    "balance_scale": Recipe(
        make_balance_scale,
        {},
        ["left_weight", "left_distance", "right_weight", "right_distance"],
        ["left", "balanced", "right"],
        "UCI Balance-Scale regenerated exactly from its deterministic "
        "torque rule (625 samples, complete 5^4 factorial).",
        synthetic_standin=False,
    ),
    "vertebral_3c": Recipe(
        make_classification_blobs,
        _VERTEBRAL,
        _VERTEBRAL_FEATURES,
        ["normal", "disk_hernia", "spondylolisthesis"],
        "Synthetic stand-in for UCI vertebral column (3 classes) over six "
        "biomechanical attributes.",
    ),
    # Three balanced, compact, mildly overlapping wheat varieties (90.5 %).
    "seeds": Recipe(
        make_classification_blobs,
        dict(n_samples=210, n_features=7, n_classes=3, n_informative=7,
             class_sep=1.7, noise_scale=1.0, label_noise=0.04,
             class_weights=[1 / 3, 1 / 3, 1 / 3], clusters_per_class=2),
        ["area", "perimeter", "compactness", "kernel_length", "kernel_width",
         "asymmetry_coefficient", "groove_length"],
        ["kama", "rosa", "canadian"],
        "Synthetic stand-in for UCI seeds: three balanced wheat varieties over "
        "seven geometric kernel measurements.",
    ),
    # The two pathologies merged, as in the original; the draw is offset from
    # vertebral_3c's, whose merge a depth-2 tree separates (the original's does not).
    "vertebral_2c": Recipe(
        make_classification_blobs,
        _VERTEBRAL,
        _VERTEBRAL_FEATURES,
        ["normal", "abnormal"],
        "Synthetic stand-in for UCI vertebral column (2 classes): normal vs "
        "abnormal, derived from the 3-class variant by class merging.",
        seed_offset=1000,
        merge=(0, 1, 1),
    ),
    # Largest and easiest (95 %): well-separated balanced digits, at the size
    # of the original training partition to bound runtime.
    "pendigits": Recipe(
        make_classification_blobs,
        dict(n_samples=7494, n_features=16, n_classes=10, n_informative=16,
             class_sep=5.0, noise_scale=0.75, label_noise=0.01, clusters_per_class=2),
        [f"{axis}{i}" for i in range(1, 9) for axis in ("x", "y")],
        [f"digit_{d}" for d in range(10)],
        "Synthetic stand-in for UCI pendigits: 10 balanced digit classes over "
        "16 pen-trajectory coordinates.",
    ),
}
