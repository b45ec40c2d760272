"""Unit tests for the dataset registry and the eight benchmark loaders."""

import hashlib
import json

import numpy as np
import pytest

from repro.datasets.registry import (
    DATASET_ABBREVIATIONS,
    dataset_names,
    load_csv,
    load_dataset,
    paper_reference,
)

EXPECTED_SHAPES = {
    "whitewine": (4898, 11, 7),
    "cardio": (2126, 21, 3),
    "arrhythmia": (452, 32, 13),
    "balance_scale": (625, 4, 3),
    "vertebral_3c": (310, 6, 3),
    "seeds": (210, 7, 3),
    "vertebral_2c": (310, 6, 2),
    "pendigits": (7494, 16, 10),
}

#: sha256 of each benchmark as generated, per (name, seed): see ``dataset_digest``.
#: A change here changes every result computed from that benchmark.
DATASET_DIGESTS = {
    ("whitewine", 0): "37d3ae36f5403f79618dc2b12bdf0f65fc00be49a1e29cd233b2806886bd85ad",
    ("whitewine", 1): "6c5db98ffc7c8861c0df49805fef9f433628634e1cb8e266ad1c8b5178af59a5",
    ("cardio", 0): "efc042bac2e0aeef7670fef6c7b820789c096f0e2ff2f33a736a745783294b16",
    ("cardio", 1): "8298fa9b596f432bfe4323b1c1e6aa65ae09f3ccfcbe75e033f8339b31f8be17",
    ("arrhythmia", 0): "5aa41e19982d3545ba4d3be5f72081b624802ec56f48a978aeb2155bc6703a99",
    ("arrhythmia", 1): "c1bc2f23df5d5feb5305b98f420659f83e6dc38008db3788561ecdd528d68a07",
    ("balance_scale", 0): "946d23ea2e906ed1077a8c599aabb3fae191f382173160d6f92b49cb911b888e",
    ("balance_scale", 1): "946d23ea2e906ed1077a8c599aabb3fae191f382173160d6f92b49cb911b888e",
    ("vertebral_3c", 0): "ee11590a8ac34d039da84e0aeb01fc78a200dbc8aee9b5a3e2ddfeeecd223f70",
    ("vertebral_3c", 1): "64abc1d32a34db1fd12a33e00fee2e746b9f7385aa17d37efbc96c002c5da3e1",
    ("seeds", 0): "ab4d90285fdced964c5b40c0302a90de4efdd69bd12861a34081ca2cbd5bdab4",
    ("seeds", 1): "c4c8236b4ceceae3485ba20e6d4b016c328636a9c3a0bb781d8e09ce1c8696c7",
    ("vertebral_2c", 0): "cd61a97dbea11db7a848389d97b954041e82132f4ad83f320be0bbb016749b60",
    ("vertebral_2c", 1): "4d4f7ed3383975cd0f5f8e8661cb293acfc416b16df075a068be1b44a34a5070",
    ("pendigits", 0): "be8450439f0712432f01349c20a133e56e06b1bc4f7d406d60371fac96be02ab",
    ("pendigits", 1): "980aeb5f86fad0343d7fb9c9af8061defb53e5c7a3f82a26dd4ca00f145160dd",
}


def dataset_digest(dataset) -> str:
    """sha256 over the ``X``/``y`` dtypes, shapes and bytes, names, description and metadata."""
    digest = hashlib.sha256()
    for array in (dataset.X, dataset.y):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    text = json.dumps(
        [dataset.name, dataset.feature_names, dataset.class_names,
         dataset.description, dataset.metadata],
    )
    digest.update(text.encode())
    return digest.hexdigest()


class TestRegistry:
    def test_eight_benchmarks_in_paper_order(self):
        assert dataset_names() == list(EXPECTED_SHAPES)

    def test_abbreviations_cover_all_datasets(self):
        assert set(DATASET_ABBREVIATIONS) == set(dataset_names())
        assert set(DATASET_ABBREVIATIONS.values()) == {
            "WW", "CA", "AR", "BS", "V3", "SE", "V2", "PD"
        }

    def test_load_by_abbreviation_and_case_insensitivity(self):
        assert load_dataset("SE").name == "seeds"
        assert load_dataset("Seeds").name == "seeds"

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("mnist")

    def test_paper_reference_available_for_all(self):
        for name in dataset_names():
            reference = paper_reference(name)
            assert 0.0 < reference["accuracy"] <= 1.0
            assert reference["total_power_mw"] > 2.0  # none self-powered in Table I


@pytest.mark.parametrize("name", list(EXPECTED_SHAPES))
class TestLoaders:
    def test_shape_matches_original_dataset(self, name):
        dataset = load_dataset(name)
        n_samples, n_features, n_classes = EXPECTED_SHAPES[name]
        assert dataset.n_samples == n_samples
        assert dataset.n_features == n_features
        assert dataset.n_classes == n_classes

    def test_normalized_features_and_valid_labels(self, name):
        dataset = load_dataset(name)
        assert dataset.X.min() >= 0.0
        assert dataset.X.max() <= 1.0
        assert dataset.y.min() >= 0
        assert dataset.y.max() < dataset.n_classes

    def test_deterministic(self, name):
        first = load_dataset(name, seed=0)
        second = load_dataset(name, seed=0)
        np.testing.assert_array_equal(first.X, second.X)
        np.testing.assert_array_equal(first.y, second.y)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_content_is_pinned(self, name, seed):
        assert dataset_digest(load_dataset(name, seed)) == DATASET_DIGESTS[name, seed]

    def test_metadata_present(self, name):
        dataset = load_dataset(name)
        assert dataset.metadata["abbreviation"] == DATASET_ABBREVIATIONS[name]
        assert "paper_baseline_accuracy" in dataset.metadata


class TestBalanceScaleExactness:
    def test_balance_scale_is_complete_factorial(self):
        dataset = load_dataset("balance_scale")
        distinct_rows = {tuple(row) for row in dataset.X}
        assert len(distinct_rows) == 625

    def test_balance_scale_rule(self):
        dataset = load_dataset("balance_scale")
        raw = dataset.X * 4.0 + 1.0  # undo normalization back to 1..5
        lw, ld, rw, rd = raw.T
        left_torque = lw * ld
        right_torque = rw * rd
        expected = np.where(
            left_torque > right_torque, 0, np.where(left_torque == right_torque, 1, 2)
        )
        np.testing.assert_array_equal(dataset.y, expected)

    def test_class_distribution_matches_uci(self):
        """The real dataset has 288 'L', 49 'B', 288 'R'."""
        dataset = load_dataset("balance_scale")
        np.testing.assert_array_equal(dataset.class_distribution(), [288, 49, 288])


class TestCsvLoader:
    def test_roundtrip_through_csv(self, tmp_path):
        path = tmp_path / "demo.csv"
        rows = ["1.0,10.0,0", "2.0,20.0,1", "3.0,30.0,1", "4.0,40.0,0"]
        path.write_text("\n".join(rows) + "\n")
        dataset = load_csv(str(path))
        assert dataset.n_samples == 4
        assert dataset.n_features == 2
        assert dataset.n_classes == 2
        assert dataset.X.min() >= 0.0 and dataset.X.max() <= 1.0

    def test_label_column_selection(self, tmp_path):
        path = tmp_path / "firstcol.csv"
        path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
        dataset = load_csv(str(path), label_column=0)
        assert dataset.n_features == 2
        np.testing.assert_array_equal(dataset.y, [0, 1])

    def test_missing_values_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,,0\n2.0,3.0,1\n")
        with pytest.raises(ValueError, match="missing"):
            load_csv(str(path))
