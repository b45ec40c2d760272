"""Unit tests for the typed search-space dimensions and canonical identities."""

import numpy as np
import pytest

from repro.search.space import (
    CategoricalDimension,
    FloatDimension,
    IntDimension,
    SearchSpace,
    get_space,
    paper_space,
    space_names,
    wide_space,
)


class TestIntDimension:
    def test_grid_and_choices(self):
        dim = IntDimension("depth", 2, 5)
        assert dim.grid() == (2, 3, 4, 5)
        assert dim.n_choices == 4

    def test_encode_decode_roundtrip_every_value(self):
        dim = IntDimension("depth", 2, 8)
        for value in dim.grid():
            assert dim.decode(dim.encode(value)) == value

    def test_canonical_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            IntDimension("depth", 2, 8).canonical(9)

    def test_degenerate_single_value_encodes_to_center(self):
        dim = IntDimension("d", 3, 3)
        assert dim.encode(3) == 0.5
        assert dim.decode(0.9) == 3

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="low"):
            IntDimension("d", 5, 2)

    @pytest.mark.parametrize("bounds", [(1, float("inf")), (float("nan"), 3), (1.5, 3)])
    def test_non_integer_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="must be integers"):
            IntDimension("d", *bounds)


class TestFloatDimension:
    def test_step_grid_snaps_fuzzy_spellings(self):
        dim = FloatDimension("tau", 0.0, 0.03, step=0.005)
        assert dim.canonical(0.005000000000001) == 0.005
        assert dim.canonical(0.0049999999999) == 0.005
        assert dim.canonical(-0.0) == 0.0

    def test_step_grid_roundtrip(self):
        dim = FloatDimension("tau", 0.0, 0.03, step=0.005)
        assert dim.n_choices == 7
        for value in dim.grid():
            assert dim.decode(dim.encode(value)) == value

    def test_continuous_dimension_has_no_grid(self):
        dim = FloatDimension("x", 0.0, 1.0)
        assert dim.n_choices is None
        with pytest.raises(ValueError, match="grid"):
            dim.grid()

    def test_log_dimension_roundtrips_endpoints(self):
        dim = FloatDimension("lr", 1e-3, 1.0, log=True)
        assert dim.decode(0.0) == pytest.approx(1e-3)
        assert dim.decode(1.0) == pytest.approx(1.0)
        assert dim.encode(1e-3) == pytest.approx(0.0)

    def test_log_requires_positive_low(self):
        with pytest.raises(ValueError, match="log"):
            FloatDimension("x", 0.0, 1.0, log=True)

    def test_log_and_step_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            FloatDimension("x", 0.1, 1.0, log=True, step=0.1)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            FloatDimension("x", 0.0, 1.0, step=0.0)

    @pytest.mark.parametrize(
        "bounds",
        [
            dict(low=0.0, high=float("inf")),
            dict(low=float("-inf"), high=0.0),
            dict(low=float("nan"), high=1.0),
            dict(low=0.0, high=1.0, step=float("nan")),
            dict(low=0.0, high=1.0, step=float("inf")),
        ],
        ids=repr,
    )
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="must be finite"):
            FloatDimension("x", **bounds)

    def test_canonical_rejects_far_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            FloatDimension("tau", 0.0, 0.03, step=0.005).canonical(0.2)


class TestCategoricalDimension:
    def test_roundtrip_every_choice(self):
        dim = CategoricalDimension("bits", (3, 4, 5))
        for choice in dim.choices:
            assert dim.decode(dim.encode(choice)) == choice

    def test_decode_bins_cover_the_unit_interval(self):
        dim = CategoricalDimension("bits", (3, 4, 5))
        assert dim.decode(0.0) == 3
        assert dim.decode(0.999) == 5
        assert dim.decode(1.0) == 5  # clamp, not IndexError

    def test_unknown_choice_rejected(self):
        with pytest.raises(ValueError, match="choices"):
            CategoricalDimension("tech", ("default",)).canonical("exotic")

    def test_canonical_returns_the_stored_choice_not_the_spelling(self):
        dim = CategoricalDimension("bits", (3, 4, 5))
        assert type(dim.canonical(4.0)) is int
        assert type(CategoricalDimension("w", (0.5, 1.0)).canonical(1)) is float

    def test_int_and_float_spellings_share_one_config_id(self):
        space = paper_space()
        ints = {"depth": 3, "tau": 0.01, "resolution_bits": 4.0,
                "technology": "default", "training_sigma": 0, "robustness_weight": 1}
        floats = {"depth": 3, "tau": 0.01, "resolution_bits": 4,
                  "technology": "default", "training_sigma": 0.0, "robustness_weight": 1.0}
        assert space.config_id(ints) == space.config_id(floats)

    def test_duplicate_choices_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CategoricalDimension("bits", (4, 4))

    def test_empty_choices_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CategoricalDimension("bits", ())


class TestSearchSpace:
    def space(self):
        return SearchSpace(
            (
                IntDimension("depth", 2, 3),
                FloatDimension("tau", 0.0, 0.01, step=0.005),
                CategoricalDimension("bits", (4, 5)),
            )
        )

    def test_unknown_and_missing_keys_rejected(self):
        space = self.space()
        with pytest.raises(ValueError, match="unknown"):
            space.canonical({"depth": 2, "tau": 0.0, "bits": 4, "extra": 1})
        with pytest.raises(ValueError, match="missing"):
            space.canonical({"depth": 2, "tau": 0.0})

    def test_config_id_is_spelling_invariant(self):
        space = self.space()
        a = space.config_id({"depth": 2, "tau": 0.005, "bits": 4})
        b = space.config_id({"bits": 4, "tau": 0.005000000000001, "depth": 2.0})
        assert a == b

    def test_encode_decode_roundtrip_on_the_full_grid(self):
        space = self.space()
        for config in space.enumerate():
            assert space.decode(space.encode(config)) == config

    def test_cardinality_and_enumeration_agree(self):
        space = self.space()
        configs = list(space.enumerate())
        assert space.cardinality == 2 * 3 * 2 == len(configs)
        assert len({space.config_id(c) for c in configs}) == len(configs)

    def test_enumerate_is_last_dimension_fastest(self):
        first, second = list(self.space().enumerate())[:2]
        assert first["depth"] == second["depth"]
        assert first["tau"] == second["tau"]
        assert (first["bits"], second["bits"]) == (4, 5)

    def test_continuous_space_has_no_cardinality_or_enumeration(self):
        space = SearchSpace((FloatDimension("x", 0.0, 1.0),))
        assert space.cardinality is None
        with pytest.raises(ValueError, match="continuous"):
            list(space.enumerate())

    def test_sample_lands_on_the_canonical_grid(self):
        space = self.space()
        rng = np.random.default_rng(0)
        ids = {space.config_id(c) for c in space.enumerate()}
        for _ in range(20):
            config = space.sample(rng)
            assert space.config_id(config) in ids

    def test_decode_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="components"):
            self.space().decode((0.5,))

    def test_duplicate_dimension_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SearchSpace((IntDimension("d", 1, 2), IntDimension("d", 1, 3)))

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            SearchSpace(())

    def test_describe_is_json_ready(self):
        import json

        description = self.space().describe()
        assert json.loads(json.dumps(description)) == description
        assert description["cardinality"] == 12


class TestCoDesignSpaces:
    def test_paper_space_matches_the_exhaustive_grid(self):
        from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS, grid_points

        space = paper_space()
        assert space.cardinality == 49
        grid = {
            (config["depth"], config["tau"]) for config in space.enumerate()
        }
        assert grid == set(grid_points(DEFAULT_DEPTHS, DEFAULT_TAUS))

    def test_wide_space_is_finite_but_large(self):
        space = wide_space()
        assert space.cardinality == 10044
        assert space.cardinality > 100 * paper_space().cardinality

    def test_named_lookup(self):
        assert space_names() == ("paper", "wide")
        assert get_space("paper").cardinality == 49
        with pytest.raises(ValueError, match="unknown search space"):
            get_space("bogus")
