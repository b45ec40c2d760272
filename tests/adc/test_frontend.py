"""Unit tests for the conventional and bespoke analog front ends."""

import numpy as np
import pytest

from oracles.unary_scalar import predict_from_digits
from repro.adc.bespoke import BespokeADC
from repro.adc.frontend import BespokeFrontEnd, ConventionalFrontEnd


class TestConventionalFrontEnd:
    def test_channel_count_and_comparators(self, technology):
        frontend = ConventionalFrontEnd([0, 2, 5], 4, technology)
        assert frontend.n_channels == 3
        assert frontend.n_comparators == 3 * 15
        assert frontend.feature_indices == (0, 2, 5)

    def test_duplicate_features_collapse(self, technology):
        frontend = ConventionalFrontEnd([1, 1, 1], 4, technology)
        assert frontend.n_channels == 1

    def test_single_shared_encoder(self, technology):
        one = ConventionalFrontEnd([0], 4, technology)
        many = ConventionalFrontEnd(list(range(10)), 4, technology)
        assert one.encoder_area_mm2 == pytest.approx(many.encoder_area_mm2)
        # Area grows linearly with channels on top of the shared encoder.
        per_channel = (many.area_mm2 - many.encoder_area_mm2) / 10
        assert per_channel == pytest.approx(
            one.area_mm2 - one.encoder_area_mm2, rel=1e-6
        )

    def test_table1_adc_power_scale(self, technology):
        """Table I: the baseline ADC power is roughly 0.4-0.55 mW per input."""
        frontend = ConventionalFrontEnd(list(range(11)), 4, technology)
        per_input = (frontend.power_mw - frontend.encoder_power_uw / 1000.0) / 11
        assert 0.35 <= per_input <= 0.55

    def test_per_input_resolution_override(self, technology):
        uniform = ConventionalFrontEnd([0, 1], 4, technology)
        scaled = ConventionalFrontEnd([0, 1], 4, technology, per_input_resolution={1: 2})
        assert scaled.n_comparators == 15 + 3
        assert scaled.area_mm2 < uniform.area_mm2
        assert scaled.power_uw < uniform.power_uw

    def test_invalid_resolution_rejected(self, technology):
        with pytest.raises(ValueError):
            ConventionalFrontEnd([0], 0, technology)
        with pytest.raises(ValueError):
            ConventionalFrontEnd([0], 4, technology, per_input_resolution={0: 0})

    def test_convert_returns_levels_for_each_channel(self, technology):
        frontend = ConventionalFrontEnd([0, 2], 4, technology)
        levels = frontend.convert([0.5, 0.9, 0.25])
        assert levels == {0: 8, 2: 4}

    def test_report_fields(self, technology):
        frontend = ConventionalFrontEnd([0, 1], 4, technology)
        report = frontend.report()
        assert report.n_channels == 2
        assert report.area_mm2 == pytest.approx(frontend.area_mm2)
        assert report.power_mw == pytest.approx(frontend.power_uw / 1000.0)


class TestBespokeFrontEnd:
    @pytest.fixture
    def frontend(self, technology):
        return BespokeFrontEnd(
            {
                0: BespokeADC((3,), technology=technology),
                2: BespokeADC((1, 2, 6), technology=technology),
            }
        )

    def test_requires_at_least_one_channel(self):
        with pytest.raises(ValueError):
            BespokeFrontEnd({})

    def test_counts(self, frontend):
        assert frontend.n_channels == 2
        assert frontend.n_comparators == 4
        assert frontend.feature_indices == (0, 2)

    def test_totals_are_sums_of_channels(self, frontend):
        assert frontend.area_mm2 == pytest.approx(
            sum(adc.area_mm2 for adc in frontend.adcs.values())
        )
        assert frontend.power_uw == pytest.approx(
            sum(adc.power_uw for adc in frontend.adcs.values())
        )

    def test_much_cheaper_than_conventional(self, frontend, technology):
        conventional = ConventionalFrontEnd([0, 2], 4, technology)
        assert frontend.area_mm2 < conventional.area_mm2 / 10
        assert frontend.power_uw < conventional.power_uw / 3

    def test_convert_exposes_only_retained_digits(self, frontend):
        digits = frontend.convert([0.5, 0.0, 0.30])
        assert digits == {0: {3: 1}, 2: {1: 1, 2: 1, 6: 0}}

    def test_report(self, frontend):
        report = frontend.report()
        assert report.n_channels == 2
        assert report.n_comparators == 4


class TestBatchConversion:
    def test_conventional_convert_batch_matches_scalar(self, technology):
        frontend = ConventionalFrontEnd([0, 2, 3], 4, technology)
        rng = np.random.default_rng(21)
        X = rng.random((50, 5))
        batch = frontend.convert_batch(X)
        assert set(batch) == set(frontend.feature_indices)
        for row_index, sample in enumerate(X):
            scalar = frontend.convert(sample)
            for feature, level in scalar.items():
                assert batch[feature][row_index] == level

    def test_conventional_convert_batch_respects_per_input_resolution(self, technology):
        frontend = ConventionalFrontEnd(
            [0, 1], 4, technology, per_input_resolution={1: 2}
        )
        X = np.array([[0.99, 0.99]])
        batch = frontend.convert_batch(X)
        assert batch[0][0] == 15
        assert batch[1][0] == 3

    def test_conventional_convert_batch_rejects_vectors(self, technology):
        frontend = ConventionalFrontEnd([0], 4, technology)
        with pytest.raises(ValueError, match="2-D"):
            frontend.convert_batch(np.array([0.5, 0.2]))

    def test_bespoke_convert_batch_matches_scalar(self, technology):
        frontend = BespokeFrontEnd(
            {
                0: BespokeADC((3,), technology=technology),
                2: BespokeADC((1, 2, 6), technology=technology),
            }
        )
        rng = np.random.default_rng(23)
        X = rng.random((40, 3))
        batch = frontend.convert_batch(X)
        for row_index, sample in enumerate(X):
            scalar = frontend.convert(sample)
            for feature, per_level in scalar.items():
                for level, digit in per_level.items():
                    assert batch[feature][level][row_index] == digit

    def test_bespoke_batch_feeds_unary_tree_prediction(self, small_tree):
        from repro.core.bespoke_adc import build_bespoke_frontend
        from repro.core.unary_tree import UnaryDecisionTree

        unary = UnaryDecisionTree(small_tree)
        bespoke = build_bespoke_frontend(small_tree)
        rng = np.random.default_rng(29)
        X = rng.random((30, small_tree.n_features))
        digits = bespoke.convert_batch(X)
        batch = unary.predict_from_digits_batch(digits)
        scalar = np.array(
            [predict_from_digits(unary, bespoke.convert(sample)) for sample in X]
        )
        np.testing.assert_array_equal(batch, scalar)
