"""Trainer equivalence: columnar split search vs the legacy object path.

The columnar :class:`~repro.mltrees.split_search.CandidateTable` refactor
must not change a single trained tree: same candidate ordering, bit-identical
Gini scores, identical RNG consumption at every tie-break.  These tests pit
the production trainers against the retained pre-refactor reference
(``tests/oracles/legacy_split_search.py``) and require node-for-node
identical trees across every registered benchmark, several seeds, and
multiple tau values (CART and ADC-aware).

The four small benchmarks run in the fast tier-1 gate; the four large ones
are marked slow (the legacy trainer is the expensive side).
"""

import numpy as np
import pytest

from oracles.legacy_split_search import (
    LegacyADCAwareTrainer,
    LegacyCARTTrainer,
    candidate_list,
    legacy_enumerate_split_candidates,
)
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.datasets.registry import dataset_names, load_dataset
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.mltrees.split_search import enumerate_split_candidates

SMALL_DATASETS = ("balance_scale", "vertebral_3c", "vertebral_2c", "seeds")
LARGE_DATASETS = tuple(sorted(set(dataset_names()) - set(SMALL_DATASETS)))
SEEDS = (0, 1)
TAUS = (0.0, 0.01, 0.03)
DEPTH = 5


@pytest.fixture(scope="module")
def quantized_split():
    """Memoized per-dataset quantized 70/30 training splits."""
    cache = {}

    def _get(name: str):
        if name not in cache:
            dataset = load_dataset(name, seed=0)
            X_train, _, y_train, _ = train_test_split(
                dataset.X, dataset.y, test_size=0.3, seed=0
            )
            cache[name] = (quantize_dataset(X_train), y_train, dataset.n_classes)
        return cache[name]

    return _get


#: An offset sigma large enough that a *live* flip penalty would reshape
#: trees; with ``robustness_weight=0`` it must change absolutely nothing.
DISABLED_PENALTY_SIGMA = 0.05


def _assert_trainers_equivalent(name: str, quantized_split) -> None:
    X_levels, y, n_classes = quantized_split(name)
    for seed in SEEDS:
        columnar = CARTTrainer(max_depth=DEPTH, seed=seed).fit(X_levels, y, n_classes)
        legacy = LegacyCARTTrainer(max_depth=DEPTH, seed=seed).fit(X_levels, y, n_classes)
        assert columnar == legacy, f"CART tree differs on {name} (seed {seed})"
        disabled = CARTTrainer(
            max_depth=DEPTH, seed=seed,
            training_sigma=DISABLED_PENALTY_SIGMA, robustness_weight=0.0,
        ).fit(X_levels, y, n_classes)
        assert disabled == legacy, (
            f"robustness_weight=0 CART tree differs on {name} (seed {seed})"
        )
        for tau in TAUS:
            columnar = ADCAwareTrainer(
                max_depth=DEPTH, gini_threshold=tau, seed=seed
            ).fit(X_levels, y, n_classes)
            legacy = LegacyADCAwareTrainer(
                max_depth=DEPTH, gini_threshold=tau, seed=seed
            ).fit(X_levels, y, n_classes)
            assert columnar == legacy, (
                f"ADC-aware tree differs on {name} (seed {seed}, tau {tau})"
            )
            # offset-aware machinery with the penalty disabled: node-for-node
            # identical trees and identical RNG consumption vs the oracle
            disabled = ADCAwareTrainer(
                max_depth=DEPTH, gini_threshold=tau, seed=seed,
                training_sigma=DISABLED_PENALTY_SIGMA, robustness_weight=0.0,
            ).fit(X_levels, y, n_classes)
            assert disabled == legacy, (
                f"robustness_weight=0 ADC-aware tree differs on {name} "
                f"(seed {seed}, tau {tau})"
            )


@pytest.mark.parametrize("name", SMALL_DATASETS)
def test_trees_node_for_node_identical_small(name, quantized_split):
    _assert_trainers_equivalent(name, quantized_split)


@pytest.mark.slow
@pytest.mark.parametrize("name", LARGE_DATASETS)
def test_trees_node_for_node_identical_large(name, quantized_split):
    _assert_trainers_equivalent(name, quantized_split)


@pytest.mark.parametrize("name", SMALL_DATASETS)
def test_candidate_tables_match_legacy_lists(name, quantized_split):
    """Root-node candidates: same order, bit-identical scores and counts."""
    X_levels, y, n_classes = quantized_split(name)
    indices = np.arange(len(y))
    table = enumerate_split_candidates(X_levels, y, indices, n_classes, 16)
    legacy = legacy_enumerate_split_candidates(X_levels, y, indices, n_classes, 16)
    assert len(table) == len(legacy) > 0
    # each row materialized: bit-identical floats, not approximate equality
    assert candidate_list(table) == legacy


def test_offset_penalty_inert_unless_both_knobs_positive(quantized_split):
    """The flip penalty needs sigma > 0 AND weight > 0; otherwise nominal."""
    X_levels, y, n_classes = quantized_split("seeds")
    nominal = ADCAwareTrainer(max_depth=5, gini_threshold=0.01, seed=0).fit(
        X_levels, y, n_classes
    )
    for sigma, weight in ((0.0, 2.0), (0.04, 0.0), (0.0, 0.0)):
        inert = ADCAwareTrainer(
            max_depth=5, gini_threshold=0.01, seed=0,
            training_sigma=sigma, robustness_weight=weight,
        ).fit(X_levels, y, n_classes)
        assert inert == nominal, f"sigma={sigma}, weight={weight} must be inert"
    aware = ADCAwareTrainer(
        max_depth=5, gini_threshold=0.01, seed=0,
        training_sigma=0.04, robustness_weight=1.0,
    ).fit(X_levels, y, n_classes)
    assert aware != nominal  # ... and really participates when both are set


def test_ablation_flag_preserved_under_columnar_path(quantized_split):
    """prefer_low_power_levels=False (the Section III-C ablation) still matches."""
    X_levels, y, n_classes = quantized_split("seeds")
    columnar = ADCAwareTrainer(
        max_depth=4, gini_threshold=0.02, seed=0, prefer_low_power_levels=False
    ).fit(X_levels, y, n_classes)
    legacy = LegacyADCAwareTrainer(
        max_depth=4, gini_threshold=0.02, seed=0, prefer_low_power_levels=False
    ).fit(X_levels, y, n_classes)
    assert columnar == legacy
