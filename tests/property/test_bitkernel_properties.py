"""Property-based equivalence of the bit-parallel kernel (hypothesis).

The packed-uint64 kernel behind ``UnaryDecisionTree.predict_digit_matrix`` /
``predict_from_digits_batch`` must be *bit-identical* to two references
that share none of its evaluation code -- the ndarray label-logic
evaluator in ``tests/oracles/batch_logic.py`` and the scalar
``predict_from_assignment`` -- for every trained tree and every digit
batch, including ragged batch sizes that do not fill a 64-bit word and
digit rows no thermometer code produces.  Hypothesis drives dataset x seed x
depth combinations over all eight paper benchmarks (trained trees are
memoized per configuration, so the suite trains each at most once) and
adversarial batch slicing; runs are derandomized for CI stability.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.batch_logic import batch_oracle
from repro.adc.thermometer import pack_digit_matrix, unpack_digit_matrix
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.unary_tree import UnaryDecisionTree
from repro.datasets.registry import dataset_names, load_dataset
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset

ALL_DATASETS = dataset_names()

#: Ragged sizes around the word boundary plus word-aligned ones.
BATCH_SIZES = (1, 3, 63, 64, 65, 127, 128, 129, 257)


@lru_cache(maxsize=None)
def _trained(name: str, depth: int, seed: int):
    """Train once per (dataset, depth, seed); shared across examples."""
    dataset = load_dataset(name, seed=seed)
    X_train, X_test, y_train, _ = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=seed
    )
    tree = ADCAwareTrainer(max_depth=depth, gini_threshold=0.01, seed=seed).fit(
        quantize_dataset(X_train), y_train, dataset.n_classes
    )
    return tree, UnaryDecisionTree(tree), quantize_dataset(X_test)


configs = st.tuples(
    st.sampled_from(ALL_DATASETS),
    st.integers(min_value=2, max_value=5),     # depth
    st.integers(min_value=0, max_value=1),     # training seed
)


class TestKernelEquivalenceProperties:
    @given(configs, st.sampled_from(BATCH_SIZES))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_kernel_matches_the_batch_oracle_on_ragged_batches(self, config, n_samples):
        name, depth, seed = config
        tree, unary, X_levels = _trained(name, depth, seed)
        oracle = batch_oracle(unary)
        repeats = -(-n_samples // len(X_levels))
        levels = np.tile(X_levels, (repeats, 1))[:n_samples]
        digits = oracle.digits_from_levels(levels)
        np.testing.assert_array_equal(
            unary.predict_digit_matrix(digits), oracle.predict(digits)
        )
        np.testing.assert_array_equal(
            unary.predict_levels(levels), tree.predict_levels(levels)
        )

    @given(configs)
    @settings(max_examples=24, deadline=None, derandomize=True)
    def test_kernel_matches_predict_from_digits_batch(self, config):
        name, depth, seed = config
        _, unary, X_levels = _trained(name, depth, seed)
        digits: dict[int, dict[int, np.ndarray]] = {}
        for feature, level in unary.comparators:
            digits.setdefault(feature, {})[level] = X_levels[:, feature] >= level
        oracle = batch_oracle(unary)
        np.testing.assert_array_equal(
            unary.predict_from_digits_batch(digits),
            oracle.predict(oracle.digits_from_levels(X_levels)),
        )

    @given(configs, st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_arbitrary_digit_rows_match_the_scalar_path(self, config, rnd):
        """Random rows, thermometer-consistent or not: label for label, or
        ``ValueError`` where the scalar path fires no label."""
        name, depth, seed = config
        _, unary, _ = _trained(name, depth, seed)
        oracle = batch_oracle(unary)
        names = unary.digit_variables()
        rows = np.random.default_rng(rnd).random((16, unary.n_unary_digits)) < 0.5
        for row in rows:
            batch = row[np.newaxis, :]
            try:
                scalar = unary.predict_from_assignment(dict(zip(names, map(bool, row))))
            except ValueError:
                with pytest.raises(ValueError, match="no label function fired"):
                    unary.predict_digit_matrix(batch)
                with pytest.raises(ValueError, match="no label function fired"):
                    oracle.predict(batch)
                continue
            assert unary.predict_digit_matrix(batch)[0] == scalar
            assert oracle.predict(batch)[0] == scalar

    @given(configs, st.sampled_from(BATCH_SIZES), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_pack_roundtrip_on_tree_digit_matrices(self, config, n_samples, rnd):
        name, depth, seed = config
        _, unary, X_levels = _trained(name, depth, seed)
        kernel = unary.kernel
        if kernel.n_digits == 0:
            return
        rng = np.random.default_rng(rnd)
        rows = rng.integers(0, len(X_levels), size=n_samples)
        digits = batch_oracle(unary).digits_from_levels(X_levels[rows])
        packed = kernel.pack_digit_matrix(digits)
        assert packed.words.shape == (kernel.n_digits, -(-n_samples // 64))
        np.testing.assert_array_equal(
            unpack_digit_matrix(packed.words, n_samples), digits
        )
        np.testing.assert_array_equal(
            packed.words, pack_digit_matrix(np.ascontiguousarray(digits))
        )
