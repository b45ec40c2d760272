"""Tree layout equivalence: node arrays vs the linked-node oracle.

:class:`~repro.mltrees.tree.DecisionTree` flattens the trainers' linked
:class:`~repro.mltrees.tree.TreeNode` graphs into parallel node arrays,
predicts with a depth-bounded gather and approximates baseline [7]'s trees
with one transform of the ``threshold`` array.  These tests pit all three
against the retained linked-node implementation (``tests/oracles/
tree_walk.py``):

* node for node, the arrays hold exactly what each trainer built, under the
  trainer's own numbering (CART pre-order, ADC-aware breadth-first), across
  every registered benchmark, several seeds and several tau values;
* the gather predicts what the recursive walk predicts, on random levels,
  for a lone leaf, an empty batch and a depth-10 tree;
* ``approximate_tree`` equals the deep-copy version for every per-feature
  bit assignment from 1 to 4 bits.

The four small benchmarks run in the fast tier-1 gate; the four large ones
are marked slow.
"""

import itertools

import numpy as np
import pytest

from oracles.tree_walk import LinkedTree, capture_roots, linked_approximate_tree
from repro.baselines.balaskas import approximate_tree
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.datasets.registry import dataset_names, load_dataset
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.mltrees.tree import LEAF, TreeNode

SMALL_DATASETS = ("balance_scale", "vertebral_3c", "vertebral_2c", "seeds")
LARGE_DATASETS = tuple(sorted(set(dataset_names()) - set(SMALL_DATASETS)))
SEEDS = (0, 1)
TAUS = (0.0, 0.01, 0.03)
DEPTH = 6


@pytest.fixture(scope="module")
def quantized_split():
    """Memoized per-dataset quantized 70/30 splits."""
    cache = {}

    def _get(name: str):
        if name not in cache:
            dataset = load_dataset(name, seed=0)
            X_train, X_test, y_train, _ = train_test_split(
                dataset.X, dataset.y, test_size=0.3, seed=0
            )
            cache[name] = (
                quantize_dataset(X_train), y_train, quantize_dataset(X_test),
                dataset.n_classes,
            )
        return cache[name]

    return _get


def _assert_same_nodes(tree, linked: LinkedTree) -> None:
    """The arrays of ``tree`` hold ``linked``'s nodes under their own ids."""
    nodes = linked.nodes()
    assert tree.preorder() == [node.node_id for node in nodes]
    assert tree.n_nodes == len(nodes)
    for node in nodes:
        index = node.node_id
        if node.is_leaf:
            assert (tree.feature[index], tree.threshold[index]) == (LEAF, 0)
            assert tree.left[index] == tree.right[index] == index
        else:
            assert tree.feature[index] == node.feature
            assert tree.threshold[index] == node.threshold_level
            assert tree.left[index] == node.left.node_id
            assert tree.right[index] == node.right.node_id
        assert tree.prediction[index] == node.prediction
        assert tree.n_samples[index] == node.n_samples
        assert tuple(tree.class_counts[index].tolist()) == node.class_counts
        assert tree.node_depth[index] == node.depth
    assert tree.depth == linked.depth
    assert tree.comparisons() == linked.comparisons()


def _assert_trainers_flatten_faithfully(name: str, quantized_split) -> None:
    X_train, y_train, X_test, n_classes = quantized_split(name)
    for seed in SEEDS:
        with capture_roots() as linked:
            cart = CARTTrainer(max_depth=DEPTH, seed=seed).fit(X_train, y_train, n_classes)
            aware = [
                ADCAwareTrainer(max_depth=DEPTH, gini_threshold=tau, seed=seed).fit(
                    X_train, y_train, n_classes
                )
                for tau in TAUS
            ]
        assert len(linked) == 1 + len(TAUS)
        for tree, link in zip([cart, *aware], linked):
            _assert_same_nodes(tree, link)
            np.testing.assert_array_equal(
                tree.predict_levels(X_test), link.predict_levels(X_test)
            )
        # CART numbers its nodes pre-order, the ADC-aware trainer breadth-first.
        assert cart.preorder() == list(range(cart.n_nodes))
        for tree in aware:
            assert np.all(np.diff(tree.node_depth) >= 0)


@pytest.mark.parametrize("name", SMALL_DATASETS)
def test_trainers_flatten_faithfully_small(name, quantized_split):
    _assert_trainers_flatten_faithfully(name, quantized_split)


@pytest.mark.slow
@pytest.mark.parametrize("name", LARGE_DATASETS)
def test_trainers_flatten_faithfully_large(name, quantized_split):
    _assert_trainers_flatten_faithfully(name, quantized_split)


# ---------------------------------------------------------------------- #
# gather vs recursive walk
# ---------------------------------------------------------------------- #
N_FEATURES = 5
N_CLASSES = 3


def _random_linked(rng, depth: int, full_path: bool = True) -> LinkedTree:
    """A random linked tree of exactly ``depth`` levels, ids shuffled (root 0)."""
    nodes: list[TreeNode] = []

    def grow(level: int, forced: bool) -> TreeNode:
        counts = tuple(int(c) for c in rng.integers(0, 20, size=N_CLASSES))
        node = TreeNode(
            node_id=-1, prediction=int(rng.integers(N_CLASSES)),
            n_samples=sum(counts), class_counts=counts, depth=level,
        )
        nodes.append(node)
        if level < depth and (forced or rng.random() < 0.6):
            node.feature = int(rng.integers(N_FEATURES))
            node.threshold_level = int(rng.integers(1, 16))
            go_left = bool(rng.integers(2))
            node.left = grow(level + 1, forced and go_left)
            node.right = grow(level + 1, forced and not go_left)
        return node

    root = grow(0, full_path)
    ids = [0, *(rng.permutation(len(nodes) - 1) + 1).tolist()]
    for node, node_id in zip(nodes, ids):
        node.node_id = node_id
    return LinkedTree(root, N_FEATURES, N_CLASSES)


@pytest.mark.parametrize("depth", [0, 1, 2, 5, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gather_matches_walk_on_random_levels(depth, seed):
    rng = np.random.default_rng(seed)
    linked = _random_linked(rng, depth)
    tree = linked.to_tree()
    assert tree.depth == linked.depth == depth
    _assert_same_nodes(tree, linked)
    X_levels = rng.integers(0, 16, size=(257, N_FEATURES))
    np.testing.assert_array_equal(tree.predict_levels(X_levels), linked.predict_levels(X_levels))
    for row in X_levels[:16]:
        assert tree.predict_one_level(row) == linked.predict_one_level(row)


def test_lone_leaf_predicts_its_class_everywhere():
    linked = _random_linked(np.random.default_rng(3), depth=0)
    tree = linked.to_tree()
    assert (tree.n_nodes, tree.n_decision_nodes, tree.depth) == (1, 0, 0)
    X_levels = np.random.default_rng(4).integers(0, 16, size=(9, N_FEATURES))
    predictions = tree.predict_levels(X_levels)
    np.testing.assert_array_equal(predictions, linked.predict_levels(X_levels))
    assert set(predictions.tolist()) == {linked.root.prediction}


@pytest.mark.parametrize("depth", [0, 4])
def test_empty_batch(depth):
    linked = _random_linked(np.random.default_rng(5), depth)
    empty = np.empty((0, N_FEATURES), dtype=np.int64)
    predictions = linked.to_tree().predict_levels(empty)
    assert predictions.shape == (0,) and predictions.dtype == np.int64
    np.testing.assert_array_equal(predictions, linked.predict_levels(empty))


# ---------------------------------------------------------------------- #
# approximate_tree vs the deep-copy oracle
# ---------------------------------------------------------------------- #
def test_approximate_tree_matches_oracle_for_every_bit_assignment(quantized_split):
    X_train, y_train, X_test, n_classes = quantized_split("seeds")
    with capture_roots() as linked:
        # Four inputs keep the exhaustive sweep at 4**4 assignments.
        tree = CARTTrainer(max_depth=5, seed=0).fit(X_train[:, :4], y_train, n_classes)
    (link,) = linked
    features = tree.used_features()
    assert len(features) >= 3
    for assignment in itertools.product(range(1, 5), repeat=len(features)):
        bits = dict(zip(features, assignment))
        approximated = approximate_tree(tree, bits)
        oracle = linked_approximate_tree(link, bits)
        _assert_same_nodes(approximated, oracle)
        assert approximated == oracle.to_tree()
        np.testing.assert_array_equal(
            approximated.predict_levels(X_test[:, :4]), oracle.predict_levels(X_test[:, :4])
        )
