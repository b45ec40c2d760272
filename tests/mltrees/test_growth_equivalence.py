"""Tree growth: the shared loop vs the two loops it replaced.

Every trainer grows its tree with ``CARTTrainer._grow``: a LIFO frontier
for CART, a FIFO frontier for the ADC-aware trainer, node ids given when a
node is popped.  Before, CART grew recursively and the ADC-aware trainer
ran its own breadth-first queue.  Both old loops are retained verbatim in
``tests/oracles/legacy_split_search.py`` (:class:`LegacyCARTGrowth`,
:class:`LegacyADCAwareGrowth`).  These tests drive each old loop with the
*production* trainer's own hooks (columnar ``_node_candidates``, production
``_select_split``) and require the production ``fit`` to return the same
tree: same node ids, same splits, same RNG draws -- across every registered
benchmark, seeds 0/1, several tau values, the low-power ablation, a leaf
size constraint and offset-aware training.

The four small benchmarks run in the fast tier-1 gate; the four large ones
are marked slow.
"""

import pytest

from oracles.legacy_split_search import LegacyADCAwareGrowth, LegacyCARTGrowth
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.datasets.registry import dataset_names, load_dataset
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset

SMALL_DATASETS = ("balance_scale", "vertebral_3c", "vertebral_2c", "seeds")
LARGE_DATASETS = tuple(sorted(set(dataset_names()) - set(SMALL_DATASETS)))
SEEDS = (0, 1)
TAUS = (0.0, 0.01, 0.03)
DEPTH = 5

#: Trainer settings on top of depth and seed, shared by both trainers.
VARIANTS = (
    {},
    {"min_samples_leaf": 3},
    {"training_sigma": 0.04, "robustness_weight": 1.0},
)


def _configurations():
    """(trainer class, old loop, constructor keywords) of every checked fit."""
    for seed in SEEDS:
        for variant in VARIANTS:
            yield CARTTrainer, LegacyCARTGrowth, {"seed": seed, **variant}
        for tau in TAUS:
            for variant in (*VARIANTS, {"prefer_low_power_levels": False}):
                yield ADCAwareTrainer, LegacyADCAwareGrowth, {
                    "seed": seed, "gini_threshold": tau, **variant,
                }


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


def _assert_same_growth(name: str, quantized_split) -> None:
    X_levels, y, n_classes = quantized_split(name)
    for trainer_cls, old_loop, kwargs in _configurations():
        grown = trainer_cls(max_depth=DEPTH, **kwargs).fit(X_levels, y, n_classes)
        oracle = old_loop.fit(
            trainer_cls(max_depth=DEPTH, **kwargs), X_levels, y, n_classes
        )
        assert grown == oracle, f"{trainer_cls.__name__}{kwargs} differs on {name}"


@pytest.mark.parametrize("name", SMALL_DATASETS)
def test_shared_loop_grows_like_the_old_loops_small(name, quantized_split):
    _assert_same_growth(name, quantized_split)


@pytest.mark.slow
@pytest.mark.parametrize("name", LARGE_DATASETS)
def test_shared_loop_grows_like_the_old_loops_large(name, quantized_split):
    _assert_same_growth(name, quantized_split)

