"""Unit tests for thermometer/unary coding utilities."""

import numpy as np
import pytest

from repro.adc.thermometer import (
    binary_to_level,
    from_thermometer,
    is_valid_thermometer,
    level_to_binary,
    quantize_array_to_levels,
    quantize_to_level,
    threshold_to_digit,
    to_thermometer,
    unary_digit,
)


class TestQuantization:
    def test_zero_and_full_scale(self):
        assert quantize_to_level(0.0, 4) == 0
        assert quantize_to_level(1.0, 4) == 15

    def test_grid_points_map_to_their_level(self):
        for level in range(16):
            assert quantize_to_level(level / 16, 4) == level

    def test_values_between_grid_points_round_down(self):
        assert quantize_to_level(0.49, 4) == 7
        assert quantize_to_level(0.51, 4) == 8

    def test_out_of_range_values_are_clipped(self):
        assert quantize_to_level(-0.3, 4) == 0
        assert quantize_to_level(1.7, 4) == 15

    def test_other_resolutions(self):
        assert quantize_to_level(0.5, 1) == 1
        assert quantize_to_level(0.49, 1) == 0
        assert quantize_to_level(0.5, 3) == 4

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            quantize_to_level(0.5, 0)

    def test_array_quantization_matches_scalar(self):
        values = np.array([[0.0, 0.3, 0.5], [0.9, 1.0, 0.0625]])
        levels = quantize_array_to_levels(values, 4)
        expected = np.array(
            [[quantize_to_level(v, 4) for v in row] for row in values]
        )
        np.testing.assert_array_equal(levels, expected)

    def test_nan_has_no_level(self):
        """A NaN used to cast to INT64_MIN; infinities clip like any out-of-range value."""
        with pytest.raises(ValueError, match="NaN"):
            quantize_array_to_levels(np.array([[0.5, np.nan]]), 4)
        with pytest.raises(ValueError):
            quantize_to_level(float("nan"), 4)
        np.testing.assert_array_equal(
            quantize_array_to_levels(np.array([[-np.inf, np.inf]]), 4), [[0, 15]]
        )


class TestThermometerCodes:
    def test_roundtrip_all_levels(self):
        for level in range(16):
            code = to_thermometer(level, 15)
            assert from_thermometer(code) == level

    def test_digit_semantics(self):
        code = to_thermometer(5, 15)
        assert code[:5] == (1, 1, 1, 1, 1)
        assert code[5:] == (0,) * 10

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            to_thermometer(16, 15)
        with pytest.raises(ValueError):
            to_thermometer(-1, 15)

    def test_validity_check(self):
        assert is_valid_thermometer((1, 1, 0, 0))
        assert is_valid_thermometer((0, 0, 0))
        assert is_valid_thermometer((1, 1, 1))
        assert not is_valid_thermometer((1, 0, 1))
        assert not is_valid_thermometer((0, 1))
        assert not is_valid_thermometer((2, 1))

    def test_from_thermometer_rejects_invalid(self):
        with pytest.raises(ValueError):
            from_thermometer((0, 1, 0))

    def test_unary_digit(self):
        assert unary_digit(5, 5) == 1
        assert unary_digit(5, 6) == 0
        assert unary_digit(0, 1) == 0
        with pytest.raises(ValueError):
            unary_digit(5, 0)


class TestBinaryConversion:
    def test_roundtrip(self):
        for level in range(16):
            assert binary_to_level(level_to_binary(level, 4)) == level

    def test_msb_first(self):
        assert level_to_binary(8, 4) == (1, 0, 0, 0)
        assert level_to_binary(1, 4) == (0, 0, 0, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            level_to_binary(16, 4)


class TestThresholdToDigit:
    def test_grid_thresholds(self):
        assert threshold_to_digit(0.375, 4) == 6
        assert threshold_to_digit(0.75, 4) == 12

    def test_clamping(self):
        assert threshold_to_digit(0.0, 4) == 1
        assert threshold_to_digit(1.0, 4) == 15

    def test_paper_equation_2_example(self):
        """I >= .1011b  ==  I[11]  (Eq. (2) of the paper)."""
        assert threshold_to_digit(0b1011 / 16, 4) == 11

    def test_digit_implements_comparison(self):
        """x >= threshold  <=>  level(x) >= digit(threshold) on the grid."""
        for threshold_level in range(1, 16):
            threshold = threshold_level / 16
            digit = threshold_to_digit(threshold, 4)
            for value_level in range(16):
                value = value_level / 16
                assert (value >= threshold) == (
                    quantize_to_level(value, 4) >= digit
                )
