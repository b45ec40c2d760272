"""The kernel's two bitset containers against the all-words reference.

:class:`~repro.core.bitkernel.CompiledTreeKernel` evaluates batches of up
to :data:`~repro.core.bitkernel.INT_BITSET_MAX_SAMPLES` samples on Python
``int`` bitsets and larger ones on ``uint64`` words.  Both must return the
labels of the evaluator they replaced (``tests/oracles/packed_kernel.py``),
and raise the same ``ValueError``, at every batch size around a word and
around the threshold: on trained trees, on consistent and random digit
rows, and on synthetic cube tables for the cases no trained tree reaches.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from oracles.packed_kernel import PackedWordKernel
from repro.circuits.two_level import Literal, SumOfProducts
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.bitkernel import INT_BITSET_MAX_SAMPLES, CompiledTreeKernel
from repro.core.unary_tree import UnaryDecisionTree, digit_variable
from repro.datasets.registry import load_dataset
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset

#: Empty, around one word, and around the int/words threshold.
SIZES = (
    0,
    1,
    63,
    64,
    65,
    INT_BITSET_MAX_SAMPLES,
    INT_BITSET_MAX_SAMPLES + 1,
    3 * INT_BITSET_MAX_SAMPLES,
)

TREES = [
    *((name, depth) for name in ("seeds", "vertebral_2c", "cardio") for depth in (2, 4, 8)),
    ("pendigits", 8),
]


@lru_cache(maxsize=None)
def _trained(name: str, depth: int):
    """A trained tree's kernel and its quantized test matrix."""
    dataset = load_dataset(name, seed=0)
    X_train, X_test, y_train, _ = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=0
    )
    tree = ADCAwareTrainer(max_depth=depth, gini_threshold=0.01, seed=0).fit(
        quantize_dataset(X_train), y_train, dataset.n_classes
    )
    return UnaryDecisionTree(tree).kernel, quantize_dataset(X_test)


def _outcome(predict, digits):
    """Labels, or the ``ValueError`` message, of one evaluation."""
    try:
        return predict(digits)
    except ValueError as error:
        return str(error)


def _assert_same_outcome(kernel, digits):
    expected = _outcome(PackedWordKernel(kernel).predict_digit_matrix, digits)
    actual = _outcome(kernel.predict_digit_matrix, digits)
    if isinstance(expected, str):
        assert actual == expected
    else:
        np.testing.assert_array_equal(actual, expected)
        assert actual.dtype == np.int64
    return actual


def _digit_names(n_digits: int) -> list[str]:
    """Digit variables of levels ``1..n_digits`` of feature 0."""
    return [digit_variable(0, level) for level in range(1, n_digits + 1)]


def _synthetic_kernel(n_digits: int, label_logic: list[SumOfProducts]):
    """A kernel over ``_digit_names(n_digits)`` with the given label logic."""
    unary = SimpleNamespace(
        n_classes=len(label_logic),
        comparators=tuple((0, level) for level in range(1, n_digits + 1)),
        digit_variables=lambda: _digit_names(n_digits),
        label_logic=dict(enumerate(label_logic)),
    )
    return CompiledTreeKernel(unary)


@pytest.mark.parametrize("n_samples", SIZES)
@pytest.mark.parametrize(("name", "depth"), TREES)
class TestTrainedTrees:
    def test_consistent_rows(self, name, depth, n_samples):
        kernel, X_levels = _trained(name, depth)
        rows = np.random.default_rng(n_samples).integers(0, len(X_levels), n_samples)
        levels = X_levels[rows]
        labels = _assert_same_outcome(kernel, levels[:, kernel._features] >= kernel._levels)
        assert labels.shape == (n_samples,)
        np.testing.assert_array_equal(
            kernel.predict_levels(levels), PackedWordKernel(kernel).predict_levels(levels)
        )

    def test_random_rows(self, name, depth, n_samples):
        kernel, _ = _trained(name, depth)
        rng = np.random.default_rng(n_samples + depth)
        _assert_same_outcome(kernel, rng.random((n_samples, kernel.n_digits)) < 0.5)

    def test_rows_that_fire_no_label_raise_alike(self, name, depth, n_samples):
        # Gate every cube on digit 0: one lane without it fires no label.
        kernel, _ = _trained(name, depth)
        gated = CompiledTreeKernel.__new__(CompiledTreeKernel)
        vars(gated).update(vars(kernel))
        gated.cubes = [
            [(tuple(sorted({0, *positive})), negated) for positive, negated in compiled]
            for compiled in kernel.cubes
        ]
        rng = np.random.default_rng(n_samples)
        digits = rng.random((n_samples, kernel.n_digits)) < 0.5
        digits[:, 0] = True
        labels = _assert_same_outcome(gated, digits)
        assert not isinstance(labels, str)
        if n_samples:
            digits[-1, 0] = False
            assert isinstance(_assert_same_outcome(gated, digits), str)


@pytest.mark.parametrize("n_samples", SIZES)
class TestSyntheticCubeTables:
    def test_single_leaf_tree_is_one_constant_true_cube(self, n_samples):
        X_levels = np.zeros((10, 3), dtype=np.int64)
        tree = CARTTrainer(max_depth=2, seed=0).fit(X_levels, np.ones(10, np.int64), 2)
        kernel = UnaryDecisionTree(tree).kernel
        assert kernel.n_digits == 0
        assert kernel.cubes[1] == [((), ())]
        labels = _assert_same_outcome(kernel, np.zeros((n_samples, 0), dtype=bool))
        np.testing.assert_array_equal(labels, np.ones(n_samples, dtype=np.int64))

    @pytest.mark.parametrize("catch_all", [True, False])
    def test_a_class_with_no_cubes_never_fires(self, n_samples, catch_all):
        first, second = _digit_names(2)
        kernel = _synthetic_kernel(
            2,
            [
                SumOfProducts([[Literal(first), Literal(second, positive=False)]]),
                SumOfProducts(),
                SumOfProducts.true() if catch_all else SumOfProducts(),
            ],
        )
        assert kernel.cubes[:2] == [[((0,), (1,))], []]
        digits = np.random.default_rng(n_samples).random((n_samples, 2)) < 0.5
        outcome = _assert_same_outcome(kernel, digits)
        fires = digits[:, 0] & ~digits[:, 1]
        if catch_all or fires.all():
            np.testing.assert_array_equal(outcome, np.where(fires, 0, 2))
        else:
            assert outcome.startswith("no label function fired")

    def test_more_than_eight_label_planes(self, n_samples):
        # 300 classes: label c < 299 fires on the binary code c of 9 digits,
        # label 299 is constant true, so a row's label is min(code, 299).
        n_digits, n_classes = 9, 300
        names = _digit_names(n_digits)
        logic = [
            SumOfProducts([[Literal(names[b], bool(c >> b & 1)) for b in range(n_digits)]])
            for c in range(n_classes - 1)
        ]
        kernel = _synthetic_kernel(n_digits, [*logic, SumOfProducts.true()])
        assert (kernel.n_classes - 1).bit_length() > 8
        digits = np.random.default_rng(n_samples).random((n_samples, n_digits)) < 0.5
        labels = _assert_same_outcome(kernel, digits)
        codes = digits.astype(np.int64) @ (1 << np.arange(n_digits))
        np.testing.assert_array_equal(labels, np.minimum(codes, n_classes - 1))


def test_wrong_width_raises_alike():
    kernel, _ = _trained("seeds", 4)
    for shape in ((4, kernel.n_digits + 1), (4,), (INT_BITSET_MAX_SAMPLES + 1, 1)):
        digits = np.zeros(shape, dtype=bool)
        with pytest.raises(ValueError) as expected:
            PackedWordKernel(kernel).predict_digit_matrix(digits)
        with pytest.raises(ValueError) as actual:
            kernel.predict_digit_matrix(digits)
        assert str(actual.value) == str(expected.value)
