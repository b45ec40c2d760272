"""Property-based tests for trained trees and their unary translation (hypothesis).

These are the invariants the whole co-design rests on:

* the trained tree respects its depth bound and its thresholds live on the
  ADC grid;
* the parallel unary translation is functionally identical to the tree for
  every possible quantized input;
* the bespoke ADC front end retains exactly the digits the logic consumes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.bespoke_adc import build_bespoke_adcs
from repro.core.unary_tree import UnaryDecisionTree
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.tree import LEAF

N_FEATURES = 4
N_LEVELS = 16


def dataset_strategy(min_samples=20, max_samples=60):
    """Random small quantized datasets with 2-3 classes."""
    return st.integers(min_value=min_samples, max_value=max_samples).flatmap(
        lambda n: st.tuples(
            arrays(np.int64, (n, N_FEATURES), elements=st.integers(0, N_LEVELS - 1)),
            arrays(np.int64, (n,), elements=st.integers(0, 2)),
        )
    )


trainer_params = st.tuples(
    st.integers(min_value=1, max_value=4),            # depth
    st.sampled_from([0.0, 0.01, 0.03]),               # tau
    st.integers(min_value=0, max_value=3),            # seed
)


class TestTrainedTreeProperties:
    @given(dataset_strategy(), trainer_params)
    @settings(max_examples=40, deadline=None)
    def test_cart_tree_invariants(self, dataset, params):
        X_levels, y = dataset
        depth, _, seed = params
        tree = CARTTrainer(max_depth=depth, seed=seed).fit(X_levels, y, n_classes=3)

        assert tree.depth <= depth
        for feature, level in tree.comparisons():
            assert 0 <= feature < N_FEATURES
            assert 1 <= level <= N_LEVELS - 1
        # training-set predictions are valid class labels
        predictions = tree.predict_levels(X_levels)
        assert set(predictions) <= {0, 1, 2}
        # sample counts along the tree are conserved
        assert tree.n_samples[0] == len(y)
        split = tree.feature != LEAF
        assert np.array_equal(
            tree.n_samples[split],
            tree.n_samples[tree.left[split]] + tree.n_samples[tree.right[split]],
        )

    @given(dataset_strategy(), trainer_params)
    @settings(max_examples=40, deadline=None)
    def test_adc_aware_tree_invariants(self, dataset, params):
        X_levels, y = dataset
        depth, tau, seed = params
        tree = ADCAwareTrainer(
            max_depth=depth, gini_threshold=tau, seed=seed
        ).fit(X_levels, y, n_classes=3)
        assert tree.depth <= depth
        unique = set(tree.unique_comparisons())
        assert len(unique) <= tree.n_decision_nodes or tree.n_decision_nodes == 0


class TestUnaryEquivalenceProperties:
    @given(dataset_strategy(), trainer_params, st.data())
    @settings(max_examples=30, deadline=None)
    def test_unary_translation_equivalent_on_random_inputs(self, dataset, params, data):
        X_levels, y = dataset
        depth, tau, seed = params
        tree = ADCAwareTrainer(
            max_depth=depth, gini_threshold=tau, seed=seed
        ).fit(X_levels, y, n_classes=3)
        unary = UnaryDecisionTree(tree)

        probe = data.draw(
            arrays(np.int64, (25, N_FEATURES), elements=st.integers(0, N_LEVELS - 1))
        )
        np.testing.assert_array_equal(
            unary.predict_levels(probe), tree.predict_levels(probe)
        )

    @given(dataset_strategy(), trainer_params)
    @settings(max_examples=30, deadline=None)
    def test_bespoke_adcs_cover_exactly_the_required_digits(self, dataset, params):
        X_levels, y = dataset
        depth, tau, seed = params
        tree = ADCAwareTrainer(
            max_depth=depth, gini_threshold=tau, seed=seed
        ).fit(X_levels, y, n_classes=3)
        adcs = build_bespoke_adcs(tree)
        required = tree.required_levels()
        assert set(adcs) == set(required)
        for feature, levels in required.items():
            assert adcs[feature].retained_levels == levels
            # never more comparators than a conventional flash ADC
            assert adcs[feature].n_unary_digits <= N_LEVELS - 1
