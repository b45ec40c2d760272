"""Unit tests for bespoke ADC front-end generation from trained trees."""

import numpy as np
import pytest

from oracles.unary_scalar import predict_from_digits
from repro.core.bespoke_adc import build_bespoke_adcs, build_bespoke_frontend
from repro.core.unary_tree import UnaryDecisionTree
from repro.mltrees.cart import CARTTrainer


class TestBuildBespokeADCs:
    def test_one_adc_per_used_feature(self, small_tree, technology):
        adcs = build_bespoke_adcs(small_tree, technology)
        assert sorted(adcs) == small_tree.used_features()

    def test_retained_levels_match_tree_requirements(self, small_tree, technology):
        adcs = build_bespoke_adcs(small_tree, technology)
        for feature, levels in small_tree.required_levels().items():
            assert adcs[feature].retained_levels == levels

    def test_accepts_unary_tree_too(self, small_tree, technology):
        from_tree = build_bespoke_adcs(small_tree, technology)
        from_unary = build_bespoke_adcs(UnaryDecisionTree(small_tree), technology)
        assert {f: adc.retained_levels for f, adc in from_tree.items()} == {
            f: adc.retained_levels for f, adc in from_unary.items()
        }

    def test_feature_names_used_for_labels(self, small_tree, technology):
        names = [f"sensor_{i}" for i in range(small_tree.n_features)]
        adcs = build_bespoke_adcs(small_tree, technology, feature_names=names)
        for feature, adc in adcs.items():
            assert adc.feature_name == f"sensor_{feature}"

    def test_resolution_follows_tree(self, technology):
        X_levels = np.array([[0, 3], [1, 0], [3, 1], [2, 2]])
        y = np.array([0, 0, 1, 1])
        tree = CARTTrainer(max_depth=2, resolution_bits=2).fit(X_levels, y)
        adcs = build_bespoke_adcs(tree, technology)
        for adc in adcs.values():
            assert adc.resolution_bits == 2


class TestBuildBespokeFrontend:
    def test_frontend_totals(self, small_tree, technology):
        frontend = build_bespoke_frontend(small_tree, technology)
        adcs = build_bespoke_adcs(small_tree, technology)
        assert frontend.n_channels == len(adcs)
        assert frontend.n_comparators == sum(
            adc.n_unary_digits for adc in adcs.values()
        )
        assert frontend.area_mm2 == pytest.approx(
            sum(adc.area_mm2 for adc in adcs.values())
        )

    def test_frontend_digits_drive_unary_tree_correctly(self, small_tree, technology):
        """ADC front end + unary logic must reproduce the software tree."""
        unary = UnaryDecisionTree(small_tree)
        frontend = build_bespoke_frontend(unary, technology)
        rng = np.random.default_rng(13)
        X = rng.random((40, small_tree.n_features))
        expected = small_tree.predict(X)
        for row, expected_label in zip(X, expected):
            digits = frontend.convert(row)
            assert predict_from_digits(unary, digits) == expected_label

    def test_single_leaf_tree_rejected(self, technology):
        X_levels = np.array([[1, 2], [3, 4]])
        y = np.array([0, 0])
        tree = CARTTrainer(max_depth=2).fit(X_levels, y, n_classes=2)
        with pytest.raises(ValueError, match="no input feature"):
            build_bespoke_frontend(tree, technology)
