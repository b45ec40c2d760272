"""Baseline [7]'s packed precision search against the per-trial search it replaced.

:func:`repro.baselines.balaskas._greedy_precision_scaling` scores each
trial as one walk of the benchmark's packed test split
(:class:`~repro.mltrees.evaluation.PackedSplit`); the search it replaced
built an approximated tree per trial and scored it with ``predict_levels``
(``tests/oracles/precision_search.py``).  For every benchmark, seeds 0-2
and every candidate depth of :func:`~repro.baselines.balaskas.fit_balaskas_design`:

* the packed scorer's accuracy of random per-feature bit widths equals
  ``accuracy_score(y, approximate_tree(tree, bits).predict_levels(X))``;
* the search returns the oracle's ``(bits, accuracy)``, at the Table II
  budget and at a looser one that accepts more trials;
* ``approximate_tree`` through the shared truncation rule equals the
  oracle's array transform.

Every comparison is ``==``.  The four small benchmarks run in the tier-1
gate, the other four are marked ``slow``.
"""

from functools import lru_cache

import numpy as np
import pytest

from oracles import precision_search as oracle
from repro.analysis.experiments import FAST_DATASETS
from repro.baselines.balaskas import _greedy_precision_scaling, approximate_tree
from repro.core.design import split_data
from repro.datasets.registry import dataset_names
from repro.mltrees.cart import CARTTrainer, fit_baseline_tree
from repro.mltrees.evaluation import accuracy_score
from repro.mltrees.quantize import truncated_threshold
from repro.mltrees.tree import LEAF

SEEDS = (0, 1, 2)
SLOW_DATASETS = tuple(name for name in dataset_names() if name not in FAST_DATASETS)
#: Table II's loss budget, and a looser one under which more trials pass.
LOSS_BUDGETS = (0.01, 0.05)
#: ``fit_balaskas_design`` defaults: candidate depths and full precision.
EXTRA_DEPTH, MAX_DEPTH, RESOLUTION = 2, 10, 4

CASES = [
    pytest.param(name, seed, marks=() if name in FAST_DATASETS else pytest.mark.slow)
    for name in (*FAST_DATASETS, *SLOW_DATASETS)
    for seed in SEEDS
]


@lru_cache(maxsize=2)
def _candidates(dataset: str, seed: int):
    """The split, baseline [2]'s accuracy and [7]'s candidate trees."""
    data = split_data(dataset, seed)
    reference = fit_baseline_tree(
        data.X_train_levels, data.y_train, data.X_test_levels, data.y_test,
        data.n_classes, seed=seed,
    )
    depths = range(
        max(1, reference.depth), min(MAX_DEPTH, reference.depth + EXTRA_DEPTH) + 1
    )
    trees = [
        CARTTrainer(max_depth=depth, seed=seed).fit(
            data.X_train_levels, data.y_train, data.n_classes
        )
        for depth in depths
    ]
    return data, reference.test_accuracy, trees


def _random_bits(tree, rng) -> dict[int, int]:
    return {
        feature: int(rng.integers(1, RESOLUTION + 1)) for feature in tree.used_features()
    }


@pytest.mark.parametrize(("dataset", "seed"), CASES)
def test_packed_accuracy_of_random_bit_widths_matches_the_oracle(dataset, seed):
    data, _, trees = _candidates(dataset, seed)
    rows = data.test_rows
    rng = np.random.default_rng(seed)
    for tree in trees:
        feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
        walk = (feature, tree.left.tolist(), tree.right.tolist(), tree.prediction.tolist())
        for _ in range(8):
            bits = _random_bits(tree, rng)
            expected = accuracy_score(
                data.y_test,
                oracle.approximate_tree(tree, bits).predict_levels(data.X_test_levels),
            )
            truncated = [
                level if split == LEAF else truncated_threshold(level, bits[split], RESOLUTION)
                for split, level in zip(feature, threshold)
            ]
            assert rows.score(*walk, rows.digits(feature, truncated)) == expected
            assert rows.accuracy(approximate_tree(tree, bits)) == expected


@pytest.mark.parametrize(("dataset", "seed"), CASES)
def test_precision_search_matches_the_oracle(dataset, seed):
    data, reference_accuracy, trees = _candidates(dataset, seed)
    for tree in trees:
        exact = data.test_rows.accuracy(tree)
        assert exact == accuracy_score(data.y_test, tree.predict_levels(data.X_test_levels))
        for budget in LOSS_BUDGETS:
            floor = reference_accuracy - budget
            expected = oracle.greedy_precision_scaling(
                tree, data.X_test_levels, data.y_test, floor, RESOLUTION, exact
            )
            found = _greedy_precision_scaling(tree, data.test_rows, floor, RESOLUTION, exact)
            assert found == expected
            assert list(found[0]) == list(expected[0])  # same key order, same pickle


@pytest.mark.parametrize(("dataset", "seed"), CASES)
def test_approximate_tree_matches_the_array_transform(dataset, seed):
    _, _, trees = _candidates(dataset, seed)
    rng = np.random.default_rng(seed)
    for tree in trees:
        for _ in range(4):
            bits = _random_bits(tree, rng)
            assert approximate_tree(tree, bits) == oracle.approximate_tree(tree, bits)
