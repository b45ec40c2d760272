"""Level-batched ADC-aware growth vs the per-node trainers it replaced.

:class:`~repro.core.adc_aware_training.ADCAwareTrainer` enumerates every
splittable node of a tree level in one
:func:`~repro.mltrees.split_search.split_node_batch` call and runs only
Algorithm 1's choice per node.  These tests pit it, node for node, against
the per-node trainer it replaced (``tests/oracles/per_node_training.py``)
and against the pre-columnar object trainer
(``tests/oracles/legacy_split_search.py``), with the final tie-break RNG
state compared too; and they check the batched kernel against one-node
enumeration on arbitrary batches.

The four small benchmarks run in the fast tier-1 gate; the four large ones
are marked slow.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_node_training
from oracles.legacy_split_search import LegacyADCAwareTrainer
from oracles.per_node_training import PerNodeADCAwareTrainer
from repro.analysis.experiments import FAST_DATASETS
from repro.core import adc_aware_training
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.design import DesignSpec
from repro.datasets.registry import dataset_names
from repro.mltrees.split_search import enumerate_split_candidates, split_node_batch

LARGE_DATASETS = tuple(name for name in dataset_names() if name not in FAST_DATASETS)
SEEDS = (0, 1)
TAUS = (0.0, 0.005, 0.03)
DEPTHS = (1, 10)

#: Trainer settings on top of depth, seed and tau.  The object trainer has
#: no expected-flip penalty, so it is compared on the nominal settings only.
VARIANTS = (
    {},
    {"min_samples_leaf": 3},
    {"prefer_low_power_levels": False},
    {"training_sigma": 0.04},
)


class _RecordingRandom:
    """Stands in for the ``random`` module: keeps every generator it makes."""

    def __init__(self):
        self.generators = []

    def Random(self, seed):
        generator = random.Random(seed)
        self.generators.append(generator)
        return generator


def _fit_recording(monkeypatch, module, trainer, split):
    """``trainer``'s tree and the final state of its tie-break generator."""
    recorder = _RecordingRandom()
    with monkeypatch.context() as patch:
        patch.setattr(module, "random", recorder)
        tree = trainer.fit(*split)
    (generator,) = recorder.generators
    return tree, generator.getstate()


def _assert_grows_like_the_oracles(name: str, monkeypatch) -> None:
    for seed in SEEDS:
        data = DesignSpec(name, seed).data()
        split = (data.X_train_levels, data.y_train, data.n_classes)
        for depth in DEPTHS:
            for tau in TAUS:
                for variant in VARIANTS:
                    kwargs = dict(max_depth=depth, gini_threshold=tau, seed=seed, **variant)
                    tree, state = _fit_recording(
                        monkeypatch, adc_aware_training, ADCAwareTrainer(**kwargs), split
                    )
                    oracle, oracle_state = _fit_recording(
                        monkeypatch, per_node_training, PerNodeADCAwareTrainer(**kwargs), split
                    )
                    assert tree == oracle, f"{name}{kwargs}: the trees differ"
                    assert state == oracle_state, f"{name}{kwargs}: the RNG draws differ"
                    if "training_sigma" not in variant:
                        assert tree == LegacyADCAwareTrainer(**kwargs).fit(*split), (
                            f"{name}{kwargs}: differs from the object trainer"
                        )


@pytest.mark.parametrize("name", FAST_DATASETS)
def test_level_grower_matches_the_per_node_trainers_small(name, monkeypatch):
    _assert_grows_like_the_oracles(name, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("name", LARGE_DATASETS)
def test_level_grower_matches_the_per_node_trainers_large(name, monkeypatch):
    _assert_grows_like_the_oracles(name, monkeypatch)


@st.composite
def _node_batches(draw):
    """A quantized training set and a batch of (possibly empty) nodes of it."""
    n_samples = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 4))
    n_levels = draw(st.sampled_from((2, 4, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X_levels = rng.integers(0, n_levels, size=(n_samples, n_features))
    y = rng.integers(0, n_classes, size=n_samples)
    sizes = draw(st.lists(st.integers(0, n_samples), min_size=1, max_size=5))
    nodes = [np.sort(rng.choice(n_samples, size=size, replace=False)) for size in sizes]
    if draw(st.booleans()):
        nodes.append(np.array([draw(st.integers(0, n_samples - 1))]))  # one sample
    min_samples_leaf = draw(st.integers(1, n_samples + 2))  # may exceed every node
    flip_sigma = draw(st.sampled_from((None, 0.0, 0.04)))
    return X_levels, y, n_classes, n_levels, nodes, min_samples_leaf, flip_sigma


@settings(max_examples=150, deadline=None)
@given(_node_batches())
def test_batched_kernel_equals_per_node_enumeration(case):
    X_levels, y, n_classes, n_levels, nodes, min_samples_leaf, flip_sigma = case
    rows = np.concatenate(nodes)
    node_of_row = np.repeat(np.arange(len(nodes)), [node.size for node in nodes])
    batch = split_node_batch(
        X_levels[rows], y[rows], node_of_row, len(nodes), n_classes, n_levels,
        min_samples_leaf, flip_sigma,
    )
    assert batch.bounds[0] == 0 and batch.bounds[-1] == batch.feature.size
    for i, indices in enumerate(nodes):
        table = enumerate_split_candidates(
            X_levels, y, indices, n_classes, n_levels, min_samples_leaf, flip_sigma
        )
        rows_i = slice(batch.bounds[i], batch.bounds[i + 1])
        for column in ("feature", "threshold_level", "gini", "n_left", "n_right"):
            np.testing.assert_array_equal(getattr(batch, column)[rows_i], getattr(table, column))
        if flip_sigma is not None and len(table):
            np.testing.assert_array_equal(batch.expected_flips[rows_i], table.expected_flips)
        # the children's class counts of every split
        for row, left, right in zip(
            range(batch.bounds[i], batch.bounds[i + 1]),
            batch.left_counts[rows_i], batch.right_counts[rows_i],
        ):
            goes_right = X_levels[indices, batch.feature[row]] >= batch.threshold_level[row]
            np.testing.assert_array_equal(
                left, np.bincount(y[indices[~goes_right]], minlength=n_classes)
            )
            np.testing.assert_array_equal(
                right, np.bincount(y[indices[goes_right]], minlength=n_classes)
            )
