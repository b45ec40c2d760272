"""Tests for the deterministic work-unit planner (``repro.core.sharding``).

The load-bearing properties of sharded execution live here: every shard
split is a *disjoint cover* of the full plan, membership is stable under
dataset reordering and across processes (no ``PYTHONHASHSEED`` leakage),
and unit identities stay put when the code version changes even though the
store keys (correctly) do not.
"""

import os
import subprocess
import sys

import pytest

from repro.core.design import DesignSpec
from repro.core.exploration import grid_points
from repro.core.sharding import (
    MissingResultsError,
    ShardSpec,
    normalize_sigmas,
    plan_suite_units,
    point_work_unit,
    suite_work_unit,
    variation_work_unit,
)
from repro.core.store import ResultStore

#: Tiny grid keeping planner tests instant.
SMALL_GRID = dict(depths=(2, 3), taus=(0.0, 0.01))


class TestShardSpec:
    def test_parse_round_trip(self):
        spec = ShardSpec.parse("2/3")
        assert (spec.index, spec.count) == (2, 3)
        assert str(spec) == "2/3"
        assert ShardSpec.parse(" 1/1 ") == ShardSpec(1, 1)

    @pytest.mark.parametrize("text", ["", "3", "a/b", "1/", "/3", "1/2/3"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="K/N"):
            ShardSpec.parse(text)

    @pytest.mark.parametrize("index,count", [(0, 3), (4, 3), (-1, 2), (1, 0)])
    def test_out_of_range_rejected(self, index, count):
        with pytest.raises(ValueError):
            ShardSpec(index=index, count=count)


class TestGridPoints:
    def test_depth_major_order(self):
        assert grid_points((2, 3), (0.0, 0.01)) == (
            (2, 0.0), (2, 0.01), (3, 0.0), (3, 0.01),
        )


class TestWorkUnits:
    def test_suite_unit_addresses_the_reference_entry(self):
        unit = suite_work_unit("vertebral_2c", 0, False)
        assert unit.store_key == DesignSpec("vertebral_2c", 0).reference_key(False)
        assert unit.store_key != suite_work_unit("vertebral_2c", 0, True).store_key
        assert unit.kind == "suite"
        assert unit.label == "suite:vertebral_2c[table1]"

    def test_point_unit_addresses_the_design_point_entry(self):
        spec = DesignSpec("seeds", 0, 3, 0.01)
        unit = point_work_unit(spec)
        assert unit.store_key == spec.key()
        assert unit.spec == spec
        assert unit.kind == "point"
        assert unit.label == "point:seeds[d=3,tau=0.01]"

    def test_variation_unit_addresses_the_variation_cache_entry(self):
        spec = DesignSpec("seeds", 0, 3, 0.01)
        unit = variation_work_unit(spec, 0.02, 5)
        assert unit.store_key == spec.variation_key(0.02, 5)
        assert unit.kind == "variation"

    def test_abbreviation_aliases_canonical_name(self):
        assert suite_work_unit("V2", 0, False) == suite_work_unit(
            "vertebral_2c", 0, False
        )
        assert point_work_unit(DesignSpec("V2", 0, 2, 0.0)) == point_work_unit(
            DesignSpec("vertebral_2c", 0, 2, 0.0)
        )

    def test_shard_membership_survives_code_version_changes(self, monkeypatch):
        import repro

        unit = point_work_unit(DesignSpec("seeds", 0, 2, 0.0))
        monkeypatch.setattr(repro, "__version__", "99.99.99")
        bumped = point_work_unit(DesignSpec("seeds", 0, 2, 0.0))
        assert bumped.store_key != unit.store_key  # new code, new cache entry
        for count in (1, 2, 3, 7):
            assert bumped.shard_index(count) == unit.shard_index(count)

    def test_shard_index_rejects_non_positive_counts(self):
        unit = suite_work_unit("seeds", 0, False)
        with pytest.raises(ValueError):
            unit.shard_index(0)


class TestPlanSuiteUnits:
    def test_default_plan_covers_all_benchmarks_and_variants(self):
        plan = plan_suite_units(**SMALL_GRID)
        assert len(plan.datasets) == 8
        kinds = [unit.kind for unit in plan.units]
        assert kinds.count("suite") == 8 * 2  # table1 + table2 variant per dataset
        assert kinds.count("point") == 8 * len(grid_points(**SMALL_GRID))
        assert len(kinds) == 8 * 2 + 8 * 4

    def test_sigma_adds_one_variation_unit_per_grid_point(self):
        plan = plan_suite_units(
            datasets=("seeds",), sigmas=(0.02,), n_trials=5, **SMALL_GRID
        )
        kinds = [unit.kind for unit in plan.units]
        assert kinds.count("suite") == 2
        assert kinds.count("variation") == len(grid_points(**SMALL_GRID))
        for kind in ("point", "variation"):
            grid = [
                (unit.spec.depth, unit.spec.tau)
                for unit in plan.units
                if unit.kind == kind
            ]
            assert tuple(grid) == grid_points(**SMALL_GRID)

    def test_duplicates_and_abbreviations_collapse(self):
        plan = plan_suite_units(
            datasets=("V2", "vertebral_2c", "seeds"), **SMALL_GRID
        )
        assert plan.datasets == ("vertebral_2c", "seeds")

    def test_fast_flag_selects_small_benchmarks(self):
        plan = plan_suite_units(fast=True, **SMALL_GRID)
        assert set(plan.datasets) == {
            "balance_scale", "vertebral_3c", "vertebral_2c", "seeds"
        }

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5])
    def test_shards_are_a_disjoint_cover(self, n_shards):
        plan = plan_suite_units(sigmas=(0.02,), n_trials=5, **SMALL_GRID)
        seen: list = []
        for index in range(1, n_shards + 1):
            seen.extend(plan.shard(ShardSpec(index, n_shards)))
        assert len(seen) == len(plan.units)  # no unit claimed twice
        assert set(seen) == set(plan.units)  # no unit dropped

    def test_membership_invariant_under_dataset_reordering(self):
        datasets = ("whitewine", "seeds", "vertebral_2c", "balance_scale")
        forward = plan_suite_units(
            datasets=datasets, sigmas=(0.02,), n_trials=5, **SMALL_GRID
        )
        backward = plan_suite_units(
            datasets=tuple(reversed(datasets)), sigmas=(0.02,), n_trials=5,
            **SMALL_GRID,
        )
        assignment = {unit: unit.shard_index(3) for unit in forward.units}
        assert {unit: unit.shard_index(3) for unit in backward.units} == assignment

    def test_missing_diffs_plan_against_store_without_misses(self, tmp_path):
        plan = plan_suite_units(datasets=("seeds",), **SMALL_GRID)
        store = ResultStore(cache_dir=tmp_path / "cache")
        assert plan.missing(store) == plan.units
        store.put(plan.units[0].store_key, "stub")
        assert plan.missing(store) == plan.units[1:]
        assert store.stats.misses == 0  # pure membership checks


class TestNormalizeSigmas:
    def test_sorts_and_dedupes(self):
        assert normalize_sigmas((0.04, 0.01, 0.01, 0.02)) == (0.01, 0.02, 0.04)

    def test_scalar_and_none_forms(self):
        assert normalize_sigmas(0.02) == (0.02,)
        assert normalize_sigmas(None) == ()

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            normalize_sigmas((0.01, -0.02))


class TestMultiSigmaPlanning:
    def test_one_variation_unit_per_dataset_sigma_grid_point(self):
        plan = plan_suite_units(
            datasets=("seeds",), sigmas=(0.01, 0.02), n_trials=5, **SMALL_GRID
        )
        kinds = [unit.kind for unit in plan.units]
        assert kinds.count("suite") == 2
        assert kinds.count("variation") == 2 * len(grid_points(**SMALL_GRID))
        sigmas = [
            unit.params["sigma_v"]
            for unit in plan.units
            if unit.kind == "variation"
        ]
        # sigma-ascending outer loop, grid-major inner loop
        assert sigmas == [0.01] * 4 + [0.02] * 4

    def test_identities_invariant_to_sigma_ordering_and_duplicates(self):
        canonical = plan_suite_units(
            datasets=("seeds",), sigmas=(0.01, 0.04), n_trials=5, **SMALL_GRID
        )
        shuffled = plan_suite_units(
            datasets=("seeds",), sigmas=(0.04, 0.01, 0.04), n_trials=5,
            **SMALL_GRID,
        )
        assert shuffled.units == canonical.units
        assert shuffled.sigmas == (0.01, 0.04)

    @pytest.mark.parametrize("n_shards", [1, 3, 5])
    def test_multi_sigma_shards_are_a_disjoint_cover(self, n_shards):
        plan = plan_suite_units(
            datasets=("seeds", "vertebral_2c"), sigmas=(0.01, 0.02, 0.04),
            n_trials=5, **SMALL_GRID,
        )
        seen: list = []
        for index in range(1, n_shards + 1):
            seen.extend(plan.shard(ShardSpec(index, n_shards)))
        assert len(seen) == len(plan.units)
        assert set(seen) == set(plan.units)

    def test_per_sigma_units_alias_single_sigma_plans(self):
        """A multi-sigma plan is exactly the union of per-sigma plans: unit
        identities (and hence shard membership and store keys) do not depend
        on which other sigmas ride along in the sweep."""
        multi = plan_suite_units(
            datasets=("seeds",), sigmas=(0.01, 0.02), n_trials=5, **SMALL_GRID
        )
        union: set = set()
        for sigma in (0.01, 0.02):
            union.update(
                plan_suite_units(
                    datasets=("seeds",), sigmas=(sigma,), n_trials=5,
                    **SMALL_GRID,
                ).units
            )
        assert set(multi.units) == union


class TestCrossProcessStability:
    SCRIPT = (
        "from repro.core.sharding import plan_suite_units\n"
        "plan = plan_suite_units(sigmas=(0.02,), n_trials=5,"
        " depths=(2, 3), taus=(0.0, 0.01))\n"
        "for unit in plan.units:\n"
        "    print(unit.label, unit.shard_index(5))\n"
    )

    @staticmethod
    def _env(hash_seed: str) -> dict:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in ("src", env.get("PYTHONPATH")) if part
        )
        return env

    def test_assignment_identical_across_hash_seeds(self):
        """Shard membership must not leak ``PYTHONHASHSEED`` (sha256 only)."""
        outputs = []
        for hash_seed in ("0", "424242"):
            completed = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                capture_output=True, text=True, check=True,
                env=self._env(hash_seed),
            )
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") == 8 * 2 + 8 * 4 + 8 * 4

    def test_in_process_assignment_matches_subprocess(self):
        plan = plan_suite_units(sigmas=(0.02,), n_trials=5, **SMALL_GRID)
        expected = "".join(
            f"{unit.label} {unit.shard_index(5)}\n" for unit in plan.units
        )
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            capture_output=True, text=True, check=True,
            env=self._env("7"),
        )
        assert completed.stdout == expected


class TestMissingResultsError:
    def test_message_lists_labels_and_keys(self):
        error = MissingResultsError(
            [("suite:seeds[table1]", "deadbeef"), ("variation:x", "cafe")]
        )
        assert len(error.missing) == 2
        text = str(error)
        assert "2 planned unit(s) missing" in text
        assert "suite:seeds[table1]  deadbeef" in text
        assert "variation:x  cafe" in text
