"""Tests for :class:`repro.core.design.DesignSpec`, a design point's identity.

One spec names one trained, scored and costed design point: equal requests
must compare and key equal however they were spelled, and every field that
changes the trained tree must change the key.
"""

import dataclasses
import math

import pytest

from repro.core.design import DesignSpec
from repro.pdk.egfet import default_technology


class TestCanonicalIdentity:
    def test_abbreviation_and_inert_knobs_alias(self):
        spec = DesignSpec("seeds", 0, 3, 0.01)
        assert DesignSpec("SE", 0, 3, 0.01) == spec
        assert DesignSpec("seeds", 0, 3, 0.01, training_sigma=0.0,
                          robustness_weight=5.0) == spec
        assert DesignSpec("seeds", 0, 3, 0.01, training_sigma=0.04,
                          robustness_weight=0.0) == spec
        assert hash(DesignSpec("SE", 0, 3, 0.01)) == hash(spec)
        assert DesignSpec("SE", 0, 3, 0.01).key() == spec.key()

    def test_unregistered_dataset_names_stay_verbatim(self):
        assert DesignSpec("blobs", 0, 2, 0.0).dataset == "blobs"

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=1),
            dict(depth=4),
            dict(tau=0.02),
            dict(resolution_bits=6),
            dict(test_size=0.5),
            dict(training_sigma=0.04, robustness_weight=1.0),
            dict(technology=dataclasses.replace(default_technology(), vdd=0.8)),
        ],
    )
    def test_every_field_reaches_the_keys(self, change):
        spec = DesignSpec("seeds", 0, 3, 0.01)
        other = dataclasses.replace(spec, **change)
        assert other.key() != spec.key()
        assert other.variation_key(0.02, 10) != spec.variation_key(0.02, 10)

    def test_key_kinds_do_not_collide(self):
        spec = DesignSpec("seeds", 0, 3, 0.01)
        keys = {spec.key(), spec.variation_key(0.02, 10),
                spec.variation_key(0.02, 20), spec.variation_key(0.03, 10),
                spec.reference_key(False), spec.reference_key(True)}
        assert len(keys) == 6

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.01])
    def test_variation_key_rejects_an_invalid_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            DesignSpec("seeds", 0, 3, 0.01).variation_key(sigma, 10)

    def test_reference_key_ignores_grid_point_and_training_knobs(self):
        spec = DesignSpec("seeds", 0, 3, 0.01)
        aware = DesignSpec("seeds", 0, 7, 0.03, training_sigma=0.04)
        assert aware.reference_key(True) == spec.reference_key(True)
        assert dataclasses.replace(spec, resolution_bits=6).reference_key(
            True
        ) != spec.reference_key(True)

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError, match="training_sigma"):
            DesignSpec("seeds", training_sigma=-0.01)
        with pytest.raises(ValueError, match="robustness_weight"):
            DesignSpec("seeds", robustness_weight=-1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("depth", 0, "max_depth must be at least 1"),
            ("depth", -3, "max_depth must be at least 1"),
            ("tau", -0.1, "the Gini tolerance tau must be >= 0"),
            ("resolution_bits", 0, "resolution_bits must be at least 1"),
        ],
    )
    def test_invalid_grid_fields_rejected_on_construction(self, field, value, message):
        """Before anything keys, groups or trains the point, with the trainer's words."""
        with pytest.raises(ValueError, match=message):
            DesignSpec("seeds", **{field: value})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(DesignSpec("seeds"), **{field: value})


    @pytest.mark.parametrize(
        "knobs",
        [
            dict(tau=math.nan),
            dict(tau=math.inf),
            dict(test_size=1.5),
            dict(test_size=math.nan),
            dict(test_size=0.0),
            dict(test_size=1.0),
            dict(test_size=-0.2),
            dict(training_sigma=math.inf),
            dict(training_sigma=math.nan),
            dict(robustness_weight=math.nan),
            dict(robustness_weight=math.inf),
        ],
        ids=repr,
    )
    def test_non_finite_knobs_and_test_sizes_outside_0_1_rejected(self, knobs):
        """Before any cache key holds them or any trainer sees them."""
        (name,) = knobs
        with pytest.raises(ValueError, match=name):
            DesignSpec("seeds", **knobs)
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(DesignSpec("seeds"), **knobs)

class TestRecipe:
    def test_train_equals_the_evaluated_tree(self):
        """Variation units that retrain must simulate the point's own tree."""
        spec = DesignSpec("vertebral_2c", 0, 3, 0.01, training_sigma=0.02)
        assert spec.train() == spec.evaluate().tree

    def test_resolution_reaches_the_trained_tree(self):
        assert DesignSpec("seeds", 0, 3, 0.01, resolution_bits=6).train(
        ).resolution_bits == 6

    def test_simulate_with_a_given_tree_equals_retraining(self):
        spec = DesignSpec("seeds", 0, 3, 0.01)
        assert spec.simulate(0.02, 5, spec.train()) == spec.simulate(0.02, 5)

    def test_halving_vdd_changes_the_monte_carlo_accuracies(self):
        """Vdd normalizes the offsets, so a low-vdd corner sees larger ones."""
        spec = DesignSpec("seeds", 0, 3, 0.01)
        low_vdd = dataclasses.replace(
            spec, technology=dataclasses.replace(spec.technology, vdd=spec.technology.vdd / 2)
        )
        tree = spec.train()
        nominal = spec.simulate(0.02, 8, tree)
        corner = low_vdd.simulate(0.02, 8, tree)
        assert corner.nominal_accuracy == nominal.nominal_accuracy
        assert corner.accuracies != nominal.accuracies
