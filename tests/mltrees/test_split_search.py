"""Unit tests for the columnar candidate-split enumeration."""

import numpy as np
import pytest

from oracles.legacy_split_search import (
    best_gini,
    candidate_list,
    table_from_candidates,
)
from repro.mltrees.gini import weighted_gini
from repro.mltrees.split_search import (
    CandidateTable,
    SplitCandidate,
    class_histogram,
    enumerate_split_candidates,
    level_flip_matrix,
)


def _brute_force_gini(X_levels, y, indices, feature, threshold, n_classes):
    values = X_levels[indices, feature]
    labels = y[indices]
    left = labels[values < threshold]
    right = labels[values >= threshold]
    left_counts = np.bincount(left, minlength=n_classes)
    right_counts = np.bincount(right, minlength=n_classes)
    return weighted_gini(left_counts, right_counts)


class TestClassHistogram:
    def test_counts(self):
        y = np.array([0, 2, 2, 1, 0, 0])
        np.testing.assert_array_equal(class_histogram(y, 4), [3, 1, 2, 0])


class TestEnumerateSplitCandidates:
    def test_empty_node(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        assert candidate_list(enumerate_split_candidates(
            X_levels, y, np.array([], dtype=int), 2, 16
        )) == []

    def test_only_separating_thresholds_reported(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        indices = np.arange(len(y))
        candidates = enumerate_split_candidates(X_levels, y, indices, 2, 16)
        for candidate in candidate_list(candidates):
            assert candidate.n_left > 0
            assert candidate.n_right > 0
            assert candidate.n_left + candidate.n_right == len(y)

    def test_gini_matches_brute_force(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        indices = np.arange(len(y))
        candidates = enumerate_split_candidates(X_levels, y, indices, 2, 16)
        assert candidates, "the tiny dataset must produce candidates"
        for candidate in candidate_list(candidates):
            expected = _brute_force_gini(
                X_levels, y, indices, candidate.feature, candidate.threshold_level, 2
            )
            assert candidate.gini == pytest.approx(expected)

    def test_perfectly_separable_feature_reaches_zero_gini(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        indices = np.arange(len(y))
        candidates = enumerate_split_candidates(X_levels, y, indices, 2, 16)
        assert candidates.best_gini == pytest.approx(0.0)

    def test_min_samples_leaf_filters_candidates(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        indices = np.arange(len(y))
        all_candidates = enumerate_split_candidates(X_levels, y, indices, 2, 16, 1)
        strict = enumerate_split_candidates(X_levels, y, indices, 2, 16, 3)
        assert len(strict) < len(all_candidates)
        for candidate in candidate_list(strict):
            assert candidate.n_left >= 3
            assert candidate.n_right >= 3

    def test_subset_of_node_indices_respected(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        subset = np.array([0, 1, 4, 5])
        candidates = enumerate_split_candidates(X_levels, y, subset, 2, 16)
        for candidate in candidate_list(candidates):
            assert candidate.n_left + candidate.n_right == len(subset)

    def test_candidates_on_random_data_match_brute_force(self):
        rng = np.random.default_rng(5)
        X_levels = rng.integers(0, 16, size=(60, 3))
        y = rng.integers(0, 3, size=60)
        indices = np.arange(60)
        candidates = enumerate_split_candidates(X_levels, y, indices, 3, 16)
        for candidate in candidate_list(candidates)[::7]:
            expected = _brute_force_gini(
                X_levels, y, indices, candidate.feature, candidate.threshold_level, 3
            )
            assert candidate.gini == pytest.approx(expected)

    def test_best_gini_of_empty_list_is_infinite(self):
        assert best_gini([]) == float("inf")

    def test_out_of_range_levels_rejected(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        with pytest.raises(ValueError, match="quantized levels"):
            # levels up to 14 do not fit 8 quantization levels
            enumerate_split_candidates(X_levels, y, np.arange(len(y)), 2, 8)


class TestCandidateTable:
    @pytest.fixture(scope="class")
    def table(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        return enumerate_split_candidates(X_levels, y, np.arange(len(y)), 2, 16)

    def test_enumeration_returns_columnar_table(self, table):
        assert isinstance(table, CandidateTable)
        n = len(table)
        assert n > 0
        for column in (
            table.feature, table.threshold_level, table.gini,
            table.n_left, table.n_right,
        ):
            assert column.shape == (n,)
        assert table.gini.dtype == np.float64

    def test_rows_ordered_feature_major_threshold_ascending(self, table):
        order = np.lexsort((table.threshold_level, table.feature))
        np.testing.assert_array_equal(order, np.arange(len(table)))

    def test_candidate_materializes_one_row(self, table):
        first = table.candidate(0)
        assert isinstance(first, SplitCandidate)
        assert isinstance(first.gini, float)
        assert isinstance(first.threshold_level, int)
        assert candidate_list(table)[0] == first
        last = table.candidate(len(table) - 1)
        assert (last.feature, last.threshold_level) == (
            table.feature[-1], table.threshold_level[-1]
        )

    def test_equality_compares_rows(self, table):
        assert table == table_from_candidates(candidate_list(table))
        assert not (table == table.select(np.arange(len(table) - 1)))
        assert table != candidate_list(table)  # no list view: tables only

    def test_select_by_mask(self, table):
        feature_zero = table.select(table.feature == 0)
        assert isinstance(feature_zero, CandidateTable)
        assert len(feature_zero) == int(np.sum(table.feature == 0))
        assert np.all(feature_zero.feature == 0)

    def test_best_gini_of_table_matches_candidate_list(self, table):
        assert table.best_gini == best_gini(candidate_list(table))
        assert CandidateTable.empty().best_gini == float("inf")

    def test_empty_table(self):
        empty = CandidateTable.empty()
        assert len(empty) == 0
        assert not empty
        assert candidate_list(empty) == []
        assert empty == table_from_candidates([])


class TestRobustnessColumns:
    """The margin / expected-flip columns behind offset-aware training."""

    SIGMA = 0.04

    @pytest.fixture(scope="class")
    def table(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        return enumerate_split_candidates(
            X_levels, y, np.arange(len(y)), 2, 16, flip_sigma=self.SIGMA
        )

    def test_columns_absent_unless_requested(self, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        nominal = enumerate_split_candidates(X_levels, y, np.arange(len(y)), 2, 16)
        assert nominal.margin is None
        assert nominal.expected_flips is None

    def test_columns_present_and_aligned(self, table):
        assert table.margin is not None and table.expected_flips is not None
        assert table.margin.shape == table.expected_flips.shape == (len(table),)
        assert np.all(np.isfinite(table.margin))
        assert np.all(table.margin > 0)
        assert np.all((table.expected_flips >= 0) & (table.expected_flips <= 0.5))

    def test_margin_is_distance_to_nearest_occupied_level(
        self, table, tiny_levels_dataset
    ):
        X_levels, y = tiny_levels_dataset
        for candidate, margin in zip(candidate_list(table), table.margin):
            values = X_levels[:, candidate.feature]
            centers = (values + 0.5) / 16.0
            expected = np.min(np.abs(centers - candidate.threshold_level / 16.0))
            assert margin == pytest.approx(expected)

    def test_expected_flips_match_per_sample_sum(self, table, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        matrix = level_flip_matrix(16, self.SIGMA)
        for candidate, flips in zip(candidate_list(table), table.expected_flips):
            values = X_levels[:, candidate.feature]
            expected = matrix[values, candidate.threshold_level - 1].mean()
            assert flips == pytest.approx(expected, rel=1e-12)

    def test_zero_sigma_zeroes_the_flips_but_keeps_margins(
        self, tiny_levels_dataset, table
    ):
        X_levels, y = tiny_levels_dataset
        frozen = enumerate_split_candidates(
            X_levels, y, np.arange(len(y)), 2, 16, flip_sigma=0.0
        )
        assert not frozen.expected_flips.any()
        np.testing.assert_allclose(frozen.margin, table.margin)

    def test_larger_sigma_means_more_expected_flips(self, tiny_levels_dataset, table):
        X_levels, y = tiny_levels_dataset
        wider = enumerate_split_candidates(
            X_levels, y, np.arange(len(y)), 2, 16, flip_sigma=2 * self.SIGMA
        )
        assert np.all(wider.expected_flips >= table.expected_flips)
        assert wider.expected_flips.sum() > table.expected_flips.sum()

    def test_thresholds_far_from_samples_flip_less(self, table):
        """expected_flips falls as the margin grows (per feature, same node).

        Thresholds sharing a nearest-sample margin may differ in how *many*
        samples sit nearby, so the comparison is between distinct margin
        groups: every strictly-larger-margin group flips less than the
        worst of the group below it.
        """
        for feature in np.unique(table.feature):
            sub = table.select(table.feature == feature)
            margins = np.unique(sub.margin)
            worst_by_margin = [
                sub.expected_flips[sub.margin == margin].max() for margin in margins
            ]
            assert np.all(np.diff(worst_by_margin) <= 1e-12)

    def test_select_carries_the_columns(self, table):
        sub = table.select(table.margin >= np.median(table.margin))
        assert sub.margin is not None and sub.expected_flips is not None
        assert len(sub) > 0
        assert np.all(sub.margin >= np.median(table.margin))

    def test_equality_ignores_robustness_columns(self, table, tiny_levels_dataset):
        X_levels, y = tiny_levels_dataset
        nominal = enumerate_split_candidates(X_levels, y, np.arange(len(y)), 2, 16)
        assert table == nominal  # same split geometry, columns or not
        assert candidate_list(table) == candidate_list(nominal)
