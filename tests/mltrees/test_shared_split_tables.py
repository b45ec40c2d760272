"""The shared candidate-table memo: same trees, fewer enumerations.

Inside a :func:`~repro.mltrees.split_search.shared_split_tables` scope every
fit on one training set shares its nodes' candidate tables.  These tests pin
that nothing observable changes -- node arrays, the final tie-break RNG
state, the legacy-oracle equivalence, rendered tables -- while the number
of enumerations drops, and they pin the memo's lifetime: read-only tables,
cleared on a new training set and when the outermost scope exits, nested
scopes sharing one memo, an LRU bound and a clean forked child.
"""

import contextlib
import os

import numpy as np
import pytest

from oracles.legacy_split_search import (
    LegacyADCAwareTrainer,
    LegacyCARTGrowth,
    LegacyCARTTrainer,
)
from repro.analysis import experiments
from repro.cli import _render_table1, _render_table2
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.datasets.registry import load_dataset
from repro.mltrees import split_search
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.mltrees.split_search import (
    bind_training_set,
    shared_candidates,
    shared_split_tables,
)

#: (trainer class, constructor keywords) of every checked configuration.
CONFIGURATIONS = (
    (CARTTrainer, {}),
    (CARTTrainer, {"min_samples_leaf": 3}),
    (CARTTrainer, {"training_sigma": 0.04}),
    (ADCAwareTrainer, {"gini_threshold": 0.01}),
    (ADCAwareTrainer, {"gini_threshold": 0.03, "min_samples_leaf": 3}),
    (ADCAwareTrainer, {"gini_threshold": 0.01, "training_sigma": 0.04}),
)
DEPTHS = (1, 2, 3, 5, 8)


def _split(name: str, seed: int = 0):
    dataset = load_dataset(name, seed=seed)
    X_train, _, y_train, _ = train_test_split(dataset.X, dataset.y, test_size=0.3, seed=seed)
    return quantize_dataset(X_train), y_train, dataset.n_classes


@pytest.fixture(scope="module")
def seeds_split():
    return _split("seeds")


@pytest.fixture
def enumerations(monkeypatch):
    """Counts calls of ``enumerate_split_candidates`` (the memo's misses)."""
    calls = [0]
    original = split_search.enumerate_split_candidates

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(split_search, "enumerate_split_candidates", counting)
    return calls


def _recording(trainer_cls):
    """``trainer_cls`` keeping the tie-break RNG its last fit drew from."""

    class Recording(trainer_cls):
        rng = None

        def _select_split(self, candidates, placed, rng):
            self.rng = rng
            return super()._select_split(candidates, placed, rng)

    return Recording


def _fits(trainer_cls, kwargs, X_levels, y, n_classes):
    """Trees and final RNG states of a depth sweep with one configuration."""
    results = []
    for depth in DEPTHS:
        trainer = _recording(trainer_cls)(max_depth=depth, seed=3, **kwargs)
        tree = trainer.fit(X_levels, y, n_classes)
        results.append((tree, trainer.rng.getstate()))
    return results


@pytest.mark.parametrize(
    "trainer_cls, kwargs", CONFIGURATIONS,
    ids=[f"{cls.__name__}{kwargs}" for cls, kwargs in CONFIGURATIONS],
)
def test_trees_and_rng_state_unchanged(trainer_cls, kwargs, seeds_split, enumerations):
    outside = _fits(trainer_cls, kwargs, *seeds_split)
    fresh = enumerations[0]
    with shared_split_tables():
        inside = _fits(trainer_cls, kwargs, *seeds_split)
    shared = enumerations[0] - fresh
    for (tree, state), (shared_tree, shared_state) in zip(outside, inside):
        assert tree == shared_tree
        assert state == shared_state
    assert shared <= 0.6 * fresh, "the depth sweep must reuse its shared nodes"


def test_shared_tables_are_read_only(seeds_split):
    X_levels, y, n_classes = seeds_split
    indices = np.arange(len(y))
    with shared_split_tables():
        key = bind_training_set(X_levels, y, n_classes, 16)
        table = shared_candidates(key, X_levels, y, indices, n_classes, 16, 1, 0.04)
        assert shared_candidates(key, X_levels, y, indices, n_classes, 16, 1, 0.04) is table
        for column in (table.feature, table.threshold_level, table.gini, table.n_left,
                       table.n_right, table.margin, table.expected_flips):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0


def test_memo_cleared_on_exit_and_on_new_training_set(seeds_split):
    X_levels, y, n_classes = seeds_split
    assert bind_training_set(X_levels, y, n_classes, 16) is None, "no scope, no memo"
    with shared_split_tables():
        CARTTrainer(max_depth=3).fit(X_levels, y, n_classes)
        held = dict(split_search._SHARED.tables)
        assert held
        other_y = (y + 1) % n_classes
        CARTTrainer(max_depth=3).fit(X_levels, other_y, n_classes)
        tables = split_search._SHARED.tables
        assert not any(tables.get(key) is table for key, table in held.items())
        # a key bound before the data changed no longer reaches the memo
        stale = bind_training_set(X_levels, y, n_classes, 16)
        bind_training_set(X_levels, other_y, n_classes, 16)
        before = len(split_search._SHARED.tables)
        shared_candidates(stale, X_levels, y, np.arange(len(y)), n_classes, 16)
        assert len(split_search._SHARED.tables) == before
    assert not split_search._SHARED.tables
    assert split_search._SHARED.data_key is None


def test_nested_scopes_share_one_memo(seeds_split, enumerations):
    X_levels, y, n_classes = seeds_split
    with shared_split_tables():
        tree = ADCAwareTrainer(max_depth=4, gini_threshold=0.01).fit(X_levels, y, n_classes)
        fitted = enumerations[0]
        with shared_split_tables():
            again = ADCAwareTrainer(max_depth=4, gini_threshold=0.01).fit(X_levels, y, n_classes)
        assert enumerations[0] == fitted
        assert again == tree
        assert split_search._SHARED.tables, "the inner exit keeps the outer memo"
    assert not split_search._SHARED.tables


def test_memo_is_lru_bounded(seeds_split, monkeypatch):
    X_levels, y, n_classes = seeds_split
    expected = CARTTrainer(max_depth=8).fit(X_levels, y, n_classes)
    monkeypatch.setattr(split_search, "SHARED_TABLES_MAX_ENTRIES", 4)
    with shared_split_tables():
        for depth in (8, 8):
            assert CARTTrainer(max_depth=depth).fit(X_levels, y, n_classes) == expected
            assert len(split_search._SHARED.tables) == 4


def test_forked_child_starts_without_memo(seeds_split):
    X_levels, y, n_classes = seeds_split
    with shared_split_tables():
        CARTTrainer(max_depth=2).fit(X_levels, y, n_classes)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            state = split_search._SHARED
            os.write(write, bytes([state.depth, len(state.tables), state.data_key is None]))
            os._exit(0)
        os.close(write)
        report = os.read(read, 3)
        os.close(read)
        os.waitpid(pid, 0)
    assert tuple(report) == (0, 0, 1)


def test_legacy_oracle_trainers_still_match(enumerations):
    X_levels, y, n_classes = _split("vertebral_3c")
    other = _split("seeds")
    with shared_split_tables():
        for tau in (0.0, 0.01):
            grown = ADCAwareTrainer(max_depth=5, gini_threshold=tau).fit(X_levels, y, n_classes)
            oracle = LegacyADCAwareTrainer(max_depth=5, gini_threshold=tau).fit(
                X_levels, y, n_classes
            )
            assert grown == oracle
        grown = CARTTrainer(max_depth=5).fit(X_levels, y, n_classes)
        assert grown == LegacyCARTTrainer(max_depth=5).fit(X_levels, y, n_classes)
        # the old loop drives the production hooks without a bound key: a
        # memo holding another training set must not leak into it
        CARTTrainer(max_depth=5).fit(*other)
        assert LegacyCARTGrowth.fit(CARTTrainer(max_depth=5), X_levels, y, n_classes) == grown


def test_table2_suite_enumerates_less_and_renders_the_same(monkeypatch, enumerations):
    def run():
        (result,) = experiments.run_benchmark_suite(
            datasets=("seeds",), seed=0, jobs=1, store=None,
            include_approximate_baseline=True,
        )
        return result

    with monkeypatch.context() as unscoped:
        unscoped.setattr(experiments, "shared_split_tables", contextlib.nullcontext)
        fresh = run()
    fresh_calls = enumerations[0]
    shared = run()
    shared_calls = enumerations[0] - fresh_calls
    assert shared_calls <= 0.55 * fresh_calls, (fresh_calls, shared_calls)
    assert _render_table2([shared]) == _render_table2([fresh])
    assert _render_table1([shared]) == _render_table1([fresh])
    assert shared == fresh
