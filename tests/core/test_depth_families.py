"""Depth families: a depth-d ADC-aware tree is the deepest tree cut at d.

:class:`~repro.core.adc_aware_training.ADCAwareTrainer` grows breadth-first,
so the tree it grows at ``max_depth=d`` equals its tree at any larger depth
(same data, tau, seed and knobs) cut by
:meth:`~repro.mltrees.tree.DecisionTree.truncated`.  The sweep relies on it:
:func:`~repro.core.design.evaluate_family` trains each tau's depths once,
and the suite fan-out submits one job per family.  These tests pin the
property itself, the cut, and that the fan-out's entries stay per point.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from oracles.legacy_split_search import LegacyADCAwareGrowth
from oracles.per_node_training import per_node
from oracles.tree_walk import LinkedTree, TreeNode
from repro.analysis import experiments
from repro.analysis.experiments import (
    FAST_DATASETS,
    _resolve_units,
    clear_memo,
    run_benchmark_suite,
    run_plan_shard,
)
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.design import DesignSpec, evaluate_family
from repro.core.executor import SerialExecutor
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS
from repro.core.sharding import ShardSpec, plan_suite_units, point_work_unit
from repro.core.store import ResultStore
from repro.datasets.registry import dataset_names
from repro.mltrees.tree import LEAF, DecisionTree

#: Training knobs (sigma volts, robustness weight): nominal and two offset-aware pairs.
KNOBS = ((0.0, 1.0), (0.02, 1.0), (0.04, 0.5))

SLOW_DATASETS = tuple(name for name in dataset_names() if name not in FAST_DATASETS)


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Every suite run below computes or reads its own store, never the memo."""
    clear_memo()
    yield
    clear_memo()


def _check_family(dataset: str, seed: int, knobs: tuple[float, float]) -> None:
    training_sigma, robustness_weight = knobs
    deepest = max(DEFAULT_DEPTHS)
    for tau in DEFAULT_TAUS:
        def spec(depth):
            return DesignSpec(
                dataset, seed, depth, tau,
                training_sigma=training_sigma, robustness_weight=robustness_weight,
            )

        deep = spec(deepest).train()
        for depth in DEFAULT_DEPTHS:
            fresh = deep if depth == deepest else spec(depth).train()
            assert deep.truncated(depth) == fresh, (dataset, seed, tau, depth)


class TestTruncationEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("knobs", KNOBS, ids=["nominal", "s0.02w1", "s0.04w0.5"])
    @pytest.mark.parametrize("dataset", FAST_DATASETS)
    def test_fast_datasets(self, dataset, knobs, seed):
        _check_family(dataset, seed, knobs)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("knobs", KNOBS, ids=["nominal", "s0.02w1", "s0.04w0.5"])
    @pytest.mark.parametrize("dataset", SLOW_DATASETS)
    def test_remaining_datasets(self, dataset, knobs, seed):
        _check_family(dataset, seed, knobs)

    def test_cut_pickles_like_a_fresh_tree(self):
        """Store entries hold the cut, so it must serialize byte for byte alike."""
        deep = DesignSpec("seeds", 0, 8, 0.01).train()
        for depth in (2, 5):
            fresh = DesignSpec("seeds", 0, depth, 0.01).train()
            assert pickle.dumps(deep.truncated(depth)) == pickle.dumps(fresh)


def _cut_linked(root: TreeNode, depth: int) -> TreeNode:
    """A copy of the linked tree under ``root`` whose depth-``depth`` nodes are leaves."""
    root = copy.deepcopy(root)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.feature is None:
            continue
        if node.depth == depth:
            node.feature = node.threshold_level = node.left = node.right = None
        else:
            stack += [node.left, node.right]
    return root


class TestTruncated:
    @pytest.fixture(scope="class")
    def bfs(self):
        """A depth-6 breadth-first tree, the old loop's linked root and the split."""
        spec = DesignSpec("vertebral_3c", 0, 6, 0.01)
        data = spec.data()
        linked = LegacyADCAwareGrowth.fit_linked(
            per_node(spec.trainer()), data.X_train_levels, data.y_train, data.n_classes
        )
        tree = spec.train()
        assert tree == linked.to_tree()
        return tree, linked.root, data

    def test_at_or_beyond_the_depth_returns_an_equal_tree(self, bfs):
        tree, _, _ = bfs
        for depth in (tree.depth, tree.depth + 3):
            assert tree.truncated(depth) == tree

    def test_depth_zero_is_the_root_as_a_lone_leaf(self, bfs):
        tree, _, _ = bfs
        stump = tree.truncated(0)
        assert stump.n_nodes == 1 and stump.depth == 0
        assert stump.feature.tolist() == [LEAF]
        assert stump.threshold.tolist() == [0]
        assert stump.left.tolist() == stump.right.tolist() == [0]
        assert stump.prediction[0] == tree.prediction[0]
        assert stump.class_counts.tolist() == tree.class_counts[:1].tolist()

    def test_negative_depth_is_rejected(self, bfs):
        tree, _, _ = bfs
        with pytest.raises(ValueError, match="depth must be >= 0"):
            tree.truncated(-1)

    def test_cut_arrays_are_read_only(self, bfs):
        tree, _, _ = bfs
        with pytest.raises(ValueError):
            tree.truncated(2).feature[0] = 0

    @pytest.mark.parametrize("depth", range(0, 6))
    def test_predictions_match_the_walk_stopped_at_the_depth(self, bfs, depth):
        tree, root, data = bfs
        oracle = LinkedTree(_cut_linked(root, depth), tree.n_features, tree.n_classes)
        cut = tree.truncated(depth)
        assert cut.depth == depth
        for X_levels in (data.X_train_levels, data.X_test_levels):
            np.testing.assert_array_equal(
                cut.predict_levels(X_levels), oracle.predict_levels(X_levels)
            )
        assert cut == oracle.to_tree()

    def test_preorder_tree_with_a_deeper_left_subtree_raises(self):
        """CART numbers nodes in pre-order: its shallow nodes are no prefix."""
        tree = DecisionTree(
            {
                "feature": [1, 0, LEAF, LEAF, LEAF],
                "threshold": [5, 3, 0, 0, 0],
                "left": [1, 2, 2, 3, 4],
                "right": [4, 3, 2, 3, 4],
                "prediction": [0, 0, 0, 0, 0],
                "n_samples": [3, 2, 1, 1, 1],
                "class_counts": [[2, 1], [1, 1], [1, 0], [1, 0], [1, 0]],
                "node_depth": [0, 1, 2, 2, 1],
            },
            n_features=2, n_classes=2,
        )
        with pytest.raises(ValueError, match="breadth-first"):
            tree.truncated(1)
        assert tree.truncated(2) == tree


class TestEvaluateFamily:
    def test_family_points_equal_per_point_evaluation(self):
        specs = [DesignSpec("seeds", 0, depth, 0.02) for depth in (5, 2, 8, 3)]
        assert evaluate_family(specs) == [spec.evaluate() for spec in specs]

    def test_specs_differing_beyond_depth_are_rejected(self):
        with pytest.raises(ValueError, match="differ only in depth"):
            evaluate_family([DesignSpec("seeds", 0, 2, 0.0), DesignSpec("seeds", 0, 3, 0.01)])

    def test_family_ignores_depth_only(self):
        spec = DesignSpec("seeds", 0, 4, 0.01)
        assert DesignSpec("seeds", 0, 7, 0.01).family == spec.family
        assert DesignSpec("seeds", 1, 4, 0.01).family != spec.family


def _entries(cache_dir) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(cache_dir.glob("*.pkl"))}


class TestFamilyFanOut:
    def test_serial_parallel_and_sharded_entries_are_byte_identical(self, tmp_path):
        plan = plan_suite_units(datasets=("seeds",))
        stores = {}
        for jobs in (None, 2):
            stores[jobs] = tmp_path / f"jobs{jobs}"
            for include_approximate in (False, True):
                clear_memo()
                run_benchmark_suite(
                    datasets=("seeds",), jobs=jobs, store=ResultStore(stores[jobs]),
                    include_approximate_baseline=include_approximate,
                )
        sharded = tmp_path / "sharded"
        for index in (1, 2, 3):
            run_plan_shard(plan, ShardSpec(index, 3), store=ResultStore(sharded))
        for include_approximate in (False, True):  # assemble: cache hits only
            run_benchmark_suite(
                datasets=("seeds",), store=ResultStore(sharded), cache_only=True,
                include_approximate_baseline=include_approximate,
            )

        serial = _entries(stores[None])
        assert len(serial) == len(plan.units) == 51
        assert _entries(stores[2]) == serial
        assert _entries(sharded) == serial

    def test_missing_depths_beside_a_cached_deepest_point(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        cached = DesignSpec("seeds", 0, 8, 0.01)
        store.put(cached.key(), cached.evaluate())
        specs = [DesignSpec("seeds", 0, depth, 0.01) for depth in (2, 3, 4, 8)]

        fit_depths = []
        original = ADCAwareTrainer.fit

        def counting(self, *args, **kwargs):
            fit_depths.append(self.max_depth)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ADCAwareTrainer, "fit", counting)
        units = [point_work_unit(spec) for spec in specs]
        values, computed = _resolve_units(units, store, SerialExecutor())
        monkeypatch.undo()

        assert fit_depths == [4]  # one fit, at the deepest missing depth
        assert set(computed) == {unit.store_key for unit in units[:3]}
        for spec, unit in zip(specs, units):
            assert values[unit.store_key] == spec.evaluate()

    def test_cold_one_dataset_suite_fits_one_tree_per_tau(self, monkeypatch):
        calls = []
        original = ADCAwareTrainer.fit

        def counting(self, *args, **kwargs):
            calls.append((self.gini_threshold, self.max_depth))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ADCAwareTrainer, "fit", counting)
        (result,) = run_benchmark_suite(
            datasets=("seeds",), store=None, include_approximate_baseline=False
        )
        assert len(result.exploration) == 49
        assert sorted(calls) == [(tau, max(DEFAULT_DEPTHS)) for tau in DEFAULT_TAUS]

    def test_a_job_is_one_family(self, monkeypatch):
        """Seven family jobs and one reference job for a one-dataset suite."""
        jobs = []
        original = experiments._compute_job

        def recording(units, *args):
            jobs.append([unit.kind for unit in units])
            return original(units, *args)

        monkeypatch.setattr(experiments, "_compute_job", recording)
        run_benchmark_suite(
            datasets=("vertebral_2c",), store=None, include_approximate_baseline=False,
            depths=(2, 3), taus=(0.0, 0.01, 0.02),
        )
        assert jobs == [["suite"], *[["point", "point"]] * 3]
