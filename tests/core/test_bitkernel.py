"""Unit tests for the bit-parallel packed-uint64 tree kernels."""

import pickle

import numpy as np
import pytest

from repro.adc.thermometer import (
    WORD_BITS,
    pack_digit_matrix,
    packed_tail_mask,
    unpack_digit_matrix,
)
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.bitkernel import CompiledTreeKernel, compile_tree_kernel
from repro.core.design import DesignSpec
from repro.core.unary_tree import UnaryDecisionTree
from repro.datasets.registry import load_dataset
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import (
    ENGINES,
    resolve_engine,
    train_test_split,
)
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


class TestKernelEquivalence:
    @pytest.mark.parametrize("n_samples", [1, 63, 64, 65, 257])
    def test_ragged_batches_match_batch_engine(self, trained, n_samples):
        tree, X_levels, _ = trained
        kernel = compile_tree_kernel(tree)
        repeats = -(-n_samples // len(X_levels))
        levels = np.tile(X_levels, (repeats, 1))[:n_samples]
        np.testing.assert_array_equal(
            kernel.predict_levels(levels), tree.predict_levels(levels)
        )

    def test_matches_predict_from_digits_batch(self, trained):
        tree, X_levels, _ = trained
        unary = UnaryDecisionTree(tree)
        kernel = compile_tree_kernel(tree)
        digits: dict[int, dict[int, np.ndarray]] = {}
        for feature, level in unary.comparators:
            digits.setdefault(feature, {})[level] = X_levels[:, feature] >= level
        np.testing.assert_array_equal(
            kernel.predict_levels(X_levels), unary.predict_from_digits_batch(digits)
        )

    def test_single_leaf_tree_constant_true_cube(self):
        # Constant features leave nothing to split on: the tree is a single
        # leaf, the kernel has no comparators, its one cube is empty
        # (constant true) and every sample gets the majority label.
        X_levels = np.zeros((10, 3), dtype=np.int64)
        y = np.zeros(10, dtype=np.int64)
        tree = CARTTrainer(max_depth=2, seed=0).fit(X_levels, y, n_classes=2)
        kernel = compile_tree_kernel(tree)
        assert kernel.n_digits == 0
        np.testing.assert_array_equal(
            kernel.predict_levels(np.zeros((130, 3), dtype=np.int64)),
            np.zeros(130, dtype=np.int64),
        )

    def test_uncovered_digits_raise_like_batch_engine(self, trained):
        # The minimized label logic of a real tree covers the whole digit
        # space (don't-care expansion), so the no-fire guard is exercised
        # with a synthetic coverage hole: every label requires digit 0.
        tree, _, _ = trained
        kernel = CompiledTreeKernel(tree)
        kernel.cubes = [
            [(np.array([0], dtype=np.intp), np.array([], dtype=np.intp))]
            for _ in range(kernel.n_classes)
        ]
        bad = np.zeros((3, kernel.n_digits), dtype=bool)  # digit 0 never set
        with pytest.raises(
            ValueError,
            match="no label function fired; the digit assignment is "
            "inconsistent with a thermometer code",
        ):
            kernel.predict_digit_matrix(bad)
        # the guard scans only real lanes: a firing batch stays fine even
        # when its ragged tail pads the last word with zeros
        good = np.ones((65, kernel.n_digits), dtype=bool)
        np.testing.assert_array_equal(
            kernel.predict_digit_matrix(good), np.zeros(65, dtype=np.int64)
        )

    def test_empty_batch(self, trained):
        tree, X_levels, _ = trained
        kernel = compile_tree_kernel(tree)
        predictions = kernel.predict_levels(X_levels[:0])
        assert predictions.shape == (0,)

    def test_predict_raw_samples(self, trained):
        tree, _, _ = trained
        dataset = load_dataset("seeds", seed=0)
        kernel = compile_tree_kernel(tree)
        np.testing.assert_array_equal(
            kernel.predict(dataset.X), tree.predict(dataset.X)
        )


class TestKernelCache:
    def test_compile_is_cached_per_tree(self, trained):
        tree, _, _ = trained
        assert compile_tree_kernel(tree) is compile_tree_kernel(tree)

    def test_direct_construction_is_not_cached(self, trained):
        tree, _, _ = trained
        kernel = compile_tree_kernel(tree)
        assert CompiledTreeKernel(tree) is not kernel

    def test_pickle_strips_cached_kernel(self, trained):
        tree, X_levels, _ = trained
        compile_tree_kernel(tree)
        clone = pickle.loads(pickle.dumps(tree))
        assert not hasattr(clone, "_compiled_bitkernel")
        assert clone == tree
        # and the clone compiles its own, equivalent kernel
        np.testing.assert_array_equal(
            compile_tree_kernel(clone).predict_levels(X_levels),
            tree.predict_levels(X_levels),
        )


class TestEngineDispatch:
    def test_engine_names(self):
        assert ENGINES == ("batch", "bitparallel")
        for engine in ENGINES:
            assert resolve_engine(engine) == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("simd")

    def test_engines_are_bit_identical(self, trained):
        tree, X_levels, _ = trained
        np.testing.assert_array_equal(
            compile_tree_kernel(tree).predict_levels(X_levels),
            tree.predict_levels(X_levels),
        )

    def test_design_point_kernel_property(self):
        point = DesignSpec("seeds", 0, 2, 0.0).evaluate()
        kernel = point.kernel
        assert kernel is compile_tree_kernel(point.tree)
        assert kernel.n_digits == len(kernel.comparators)
