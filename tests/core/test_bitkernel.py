"""Unit tests for the bit-parallel packed-uint64 tree kernel.

The kernel is checked against two references that share none of its
evaluation code: the ndarray label-logic evaluator kept in
``tests/oracles/batch_logic.py`` and the scalar
:meth:`UnaryDecisionTree.predict_from_assignment`.
"""

import pickle

import numpy as np
import pytest

from oracles.batch_logic import batch_oracle
from repro.adc.thermometer import (
    WORD_BITS,
    pack_digit_matrix,
    packed_tail_mask,
    unpack_digit_matrix,
)
from repro.circuits.two_level import Literal, SumOfProducts
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.unary_tree import UnaryDecisionTree
from repro.core.variation import simulate_offset_variation
from repro.datasets.registry import load_dataset
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset


@pytest.fixture(scope="module")
def trained():
    """A depth-4 ADC-aware tree on seeds plus its quantized test matrix."""
    dataset = load_dataset("seeds", seed=0)
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=0
    )
    tree = ADCAwareTrainer(max_depth=4, gini_threshold=0.01, seed=0).fit(
        quantize_dataset(X_train), y_train, dataset.n_classes
    )
    return tree, quantize_dataset(X_test), y_test


class TestPacking:
    @pytest.mark.parametrize("n_samples", [0, 1, 63, 64, 65, 127, 128, 257])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_pack_unpack_roundtrip(self, n_samples, order):
        rng = np.random.default_rng(n_samples)
        digits = rng.random((n_samples, 7)) < 0.5
        digits = np.asfortranarray(digits) if order == "F" else np.ascontiguousarray(digits)
        packed = pack_digit_matrix(digits)
        assert packed.dtype == np.uint64
        assert packed.shape == (7, -(-n_samples // WORD_BITS))
        np.testing.assert_array_equal(unpack_digit_matrix(packed, n_samples), digits)

    def test_pack_layout_is_little_endian_lsb_first(self):
        digits = np.zeros((65, 2), dtype=bool)
        digits[0, 0] = True    # sample 0 -> bit 0 of word 0
        digits[63, 0] = True   # sample 63 -> bit 63 of word 0
        digits[64, 1] = True   # sample 64 -> bit 0 of word 1
        packed = pack_digit_matrix(digits)
        assert packed[0, 0] == (1 | (1 << 63))
        assert packed[0, 1] == 0
        assert packed[1, 0] == 0
        assert packed[1, 1] == 1

    def test_pack_memory_order_parity(self):
        rng = np.random.default_rng(0)
        digits = rng.random((130, 5)) < 0.5
        np.testing.assert_array_equal(
            pack_digit_matrix(np.ascontiguousarray(digits)),
            pack_digit_matrix(np.asfortranarray(digits)),
        )

    def test_pack_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_digit_matrix(np.zeros(8, dtype=bool))

    def test_tail_mask(self):
        assert packed_tail_mask(64) == np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        assert packed_tail_mask(128) == np.uint64(0xFFFF_FFFF_FFFF_FFFF)
        assert packed_tail_mask(1) == np.uint64(1)
        assert packed_tail_mask(65) == np.uint64(1)
        assert packed_tail_mask(63) == np.uint64((1 << 63) - 1)


def _scalar_or_error(unary, digits: np.ndarray) -> list:
    """Per-row scalar label, or ``ValueError`` for an inconsistent row."""
    names = unary.digit_variables()
    out = []
    for row in digits:
        try:
            out.append(unary.predict_from_assignment(dict(zip(names, map(bool, row)))))
        except ValueError:
            out.append(ValueError)
    return out


class TestKernelEquivalence:
    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 257])
    def test_ragged_batches_match_the_batch_oracle(self, trained, n_samples):
        tree, X_levels, _ = trained
        unary = UnaryDecisionTree(tree)
        oracle = batch_oracle(unary)
        repeats = -(-n_samples // len(X_levels))
        levels = np.tile(X_levels, (repeats, 1))[:n_samples]
        digits = oracle.digits_from_levels(levels)
        np.testing.assert_array_equal(
            unary.kernel.predict_digit_matrix(digits), oracle.predict(digits)
        )
        np.testing.assert_array_equal(
            unary.kernel.predict_levels(levels), tree.predict_levels(levels)
        )

    def test_matches_predict_from_digits_batch(self, trained):
        tree, X_levels, _ = trained
        unary = UnaryDecisionTree(tree)
        digits: dict[int, dict[int, np.ndarray]] = {}
        for feature, level in unary.comparators:
            digits.setdefault(feature, {})[level] = X_levels[:, feature] >= level
        oracle = batch_oracle(unary)
        np.testing.assert_array_equal(
            unary.predict_from_digits_batch(digits),
            oracle.predict(oracle.digits_from_levels(X_levels)),
        )

    @pytest.mark.parametrize("hole", [False, True], ids=["tree_logic", "coverage_hole"])
    def test_arbitrary_digit_rows_match_both_references(self, trained, hole):
        """Any digit row, consistent or not: same label, or the same raise.

        A real tree's minimized logic covers the whole digit space, so the
        ``coverage_hole`` case gates every cube on the first digit: rows
        that clear it fire no label in all three evaluators.
        """
        tree, _, _ = trained
        unary = UnaryDecisionTree(tree)
        if hole:
            gate = Literal(unary.digit_variables()[0], positive=True)
            unary._label_logic = {
                label: SumOfProducts([*term, gate] for term in sop.terms)
                for label, sop in unary.label_logic.items()
            }
        oracle = batch_oracle(unary)
        rng = np.random.default_rng(9)
        digits = rng.random((300, unary.n_unary_digits)) < 0.5
        scalar = _scalar_or_error(unary, digits)
        consistent = np.array([label is not ValueError for label in scalar])
        assert consistent.all() != hole
        expected = np.array([label for label in scalar if label is not ValueError])
        np.testing.assert_array_equal(
            unary.predict_digit_matrix(digits[consistent]), expected
        )
        np.testing.assert_array_equal(oracle.predict(digits[consistent]), expected)
        for row in digits[~consistent]:
            with pytest.raises(ValueError, match="no label function fired"):
                unary.predict_digit_matrix(row[np.newaxis, :])
            with pytest.raises(ValueError, match="no label function fired"):
                oracle.predict(row[np.newaxis, :])

    def test_single_leaf_tree_constant_true_cube(self):
        # Constant features leave nothing to split on: the tree is a single
        # leaf, the kernel has no comparators, its one cube is empty
        # (constant true) and every sample gets the majority label.
        X_levels = np.zeros((10, 3), dtype=np.int64)
        y = np.zeros(10, dtype=np.int64)
        tree = CARTTrainer(max_depth=2, seed=0).fit(X_levels, y, n_classes=2)
        kernel = UnaryDecisionTree(tree).kernel
        assert kernel.n_digits == 0
        np.testing.assert_array_equal(
            kernel.predict_levels(np.zeros((130, 3), dtype=np.int64)),
            np.zeros(130, dtype=np.int64),
        )

    def test_uncovered_digits_raise_like_the_references(self, trained):
        # The minimized label logic of a real tree covers the whole digit
        # space (don't-care expansion), so the no-fire guard is exercised
        # with a synthetic coverage hole: every label requires digit 0.
        tree, _, _ = trained
        unary = UnaryDecisionTree(tree)
        kernel = unary.kernel
        kernel.cubes = [
            [(np.array([0], dtype=np.intp), np.array([], dtype=np.intp))]
            for _ in range(kernel.n_classes)
        ]
        oracle = batch_oracle(unary)
        oracle.terms = kernel.cubes
        bad = np.zeros((3, kernel.n_digits), dtype=bool)  # digit 0 never set
        message = (
            "no label function fired; the digit assignment is "
            "inconsistent with a thermometer code"
        )
        with pytest.raises(ValueError, match=message):
            kernel.predict_digit_matrix(bad)
        with pytest.raises(ValueError, match=message):
            oracle.predict(bad)
        # the guard scans only real lanes: a firing batch stays fine even
        # when its ragged tail pads the last word with zeros
        good = np.ones((65, kernel.n_digits), dtype=bool)
        np.testing.assert_array_equal(
            kernel.predict_digit_matrix(good), np.zeros(65, dtype=np.int64)
        )
        np.testing.assert_array_equal(oracle.predict(good), np.zeros(65, dtype=np.int64))

    def test_empty_batch(self, trained):
        tree, X_levels, _ = trained
        predictions = UnaryDecisionTree(tree).kernel.predict_levels(X_levels[:0])
        assert predictions.shape == (0,)

    def test_predict_raw_samples(self, trained):
        tree, _, _ = trained
        dataset = load_dataset("seeds", seed=0)
        np.testing.assert_array_equal(
            UnaryDecisionTree(tree).predict(dataset.X), tree.predict(dataset.X)
        )

    def test_rejects_a_digit_matrix_of_the_wrong_width(self, trained):
        tree, _, _ = trained
        kernel = UnaryDecisionTree(tree).kernel
        with pytest.raises(ValueError, match="digit matrix"):
            kernel.predict_digit_matrix(np.zeros((4, kernel.n_digits + 1), dtype=bool))


class TestKernelReusesTheUnaryLogic:
    def test_kernel_is_compiled_once_from_the_unary_trees_logic(
        self, trained, count_minimizations
    ):
        tree, X_levels, _ = trained
        unary = UnaryDecisionTree(tree)
        unary.predict_levels(X_levels)
        unary.predict_digit_matrix(batch_oracle(unary).digits_from_levels(X_levels))
        assert len(count_minimizations) == tree.n_classes

    def test_kernel_is_cached_per_unary_tree(self, trained):
        tree, _, _ = trained
        unary = UnaryDecisionTree(tree)
        assert unary.kernel is unary.kernel
        assert UnaryDecisionTree(tree).kernel is not unary.kernel

    def test_compiling_the_kernel_leaves_the_tree_pickle_unchanged(self, trained):
        # Trees go into result-store entries; no compiled state rides along.
        tree, X_levels, _ = trained
        before = pickle.dumps(tree)
        UnaryDecisionTree(tree).predict_levels(X_levels)
        assert pickle.dumps(tree) == before

    def test_unary_tree_pickles_with_its_kernel(self, trained):
        # Monte-Carlo trial batches ship the unary tree, kernel included,
        # to worker processes.
        tree, X_levels, _ = trained
        unary = UnaryDecisionTree(tree)
        expected = unary.predict_levels(X_levels)
        clone = pickle.loads(pickle.dumps(unary))
        assert "kernel" in vars(clone)
        np.testing.assert_array_equal(clone.predict_levels(X_levels), expected)

    def test_monte_carlo_minimizes_once_per_label(self, trained, count_minimizations):
        tree, _, _ = trained
        dataset = load_dataset("seeds", seed=0)
        simulate_offset_variation(tree, dataset.X, dataset.y, 0.02, n_trials=4)
        assert len(count_minimizations) == tree.n_classes
