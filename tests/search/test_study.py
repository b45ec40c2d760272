"""Tests for the budgeted study: caching layers, determinism, parallelism.

The expensive guarantees (hypervolume vs. the exhaustive grid, >= 5x fewer
trained trees) live in ``benchmarks/bench_search_efficiency.py``; here the
studies are kept tiny (small budgets on the smallest benchmark) and assert
the *structural* contracts: bit-reproducible records, serial == parallel,
warm-starts through every cache layer, and the store's search accounting.
"""

import json

import pytest

from repro.analysis.experiments import run_search_study
from repro.core.store import ResultStore
from repro.search import Study, parse_objectives
from repro.search.space import (
    CategoricalDimension,
    FloatDimension,
    IntDimension,
    SearchSpace,
)

#: Small space on the suite grid: shallow depths keep training sub-second.
SMALL_SPACE_DIMS = (
    IntDimension("depth", 2, 3),
    FloatDimension("tau", 0.0, 0.01, step=0.005),
    CategoricalDimension("resolution_bits", (4,)),
    CategoricalDimension("technology", ("default",)),
    CategoricalDimension("training_sigma", (0.0,)),
    CategoricalDimension("robustness_weight", (1.0,)),
)


def small_space() -> SearchSpace:
    return SearchSpace(SMALL_SPACE_DIMS)


class TestParseObjectives:
    def test_leading_minus_maximizes(self):
        acc, power = parse_objectives(("-accuracy", "power"))
        assert (acc.metric, acc.sign, acc.spec) == ("accuracy", -1.0, "-accuracy")
        assert (power.metric, power.sign) == ("power", 1.0)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            parse_objectives(("-accuracy", "latency"))

    def test_single_objective_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            parse_objectives(("power",))

    def test_duplicate_metrics_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            parse_objectives(("-accuracy", "accuracy"))


class TestStudyValidation:
    def test_mean_accuracy_drop_requires_sigma(self, tmp_path):
        with pytest.raises(ValueError, match="sigma_v"):
            Study(
                "seeds",
                objectives=("-accuracy", "mean_accuracy_drop"),
                store=ResultStore(tmp_path),
            )

    def test_negative_budget_rejected(self, tmp_path):
        study = Study("seeds", space=small_space(), store=ResultStore(tmp_path))
        with pytest.raises(ValueError, match="budget"):
            study.run(budget=-1)

    def test_zero_batch_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="batch_size"):
            Study("seeds", batch_size=0, store=ResultStore(tmp_path))

    def test_zero_budget_yields_empty_study(self, tmp_path):
        study = Study("seeds", space=small_space(), store=ResultStore(tmp_path))
        result = study.run(budget=0)
        assert result.trials == ()
        assert result.front_numbers == ()


class TestStudyDeterminism:
    def test_same_seed_is_bit_reproducible(self, tmp_path):
        results = [
            run_search_study(
                "seeds",
                budget=4,
                seed=3,
                space=small_space(),
                store=ResultStore(tmp_path / f"store{i}"),
                batch_size=2,
            )
            for i in range(2)
        ]
        assert results[0].to_json() == results[1].to_json()

    def test_different_seeds_differ(self, tmp_path):
        records = [
            run_search_study(
                "seeds",
                budget=4,
                seed=seed,
                space=small_space(),
                store=ResultStore(tmp_path / f"seed{seed}"),
                batch_size=2,
            ).to_json_dict()
            for seed in (0, 1)
        ]
        assert [t["config"] for t in records[0]["trials"]] != [
            t["config"] for t in records[1]["trials"]
        ]

    def test_serial_and_parallel_records_are_identical(self, tmp_path):
        kwargs = dict(budget=4, seed=0, batch_size=2)
        serial = run_search_study(
            "seeds", space=small_space(),
            store=ResultStore(tmp_path / "serial"), jobs=None, **kwargs,
        )
        parallel = run_search_study(
            "seeds", space=small_space(),
            store=ResultStore(tmp_path / "parallel"), jobs=2, **kwargs,
        )
        assert serial.to_json() == parallel.to_json()


class TestCacheLayers:
    def test_second_study_warm_starts_from_trial_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        kwargs = dict(budget=4, seed=0, space=small_space(), batch_size=2)
        cold = run_search_study("seeds", store=store, **kwargs)
        assert cold.n_trained == 4 and cold.n_from_cache == 0
        warm = run_search_study("seeds", store=store, **kwargs)
        assert warm.n_trained == 0 and warm.n_from_cache == 4
        # Identical measurements through either path.
        for a, b in zip(cold.trials, warm.trials):
            assert a.config == b.config
            assert a.objectives == b.objectives
            assert a.store_key == b.store_key

    def test_search_stats_recorded_on_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        kwargs = dict(budget=3, seed=0, space=small_space(), batch_size=3)
        run_search_study("seeds", store=store, **kwargs)
        run_search_study("seeds", store=store, **kwargs)
        # Counters persist: a fresh instance reads them from _stats.json.
        stats = ResultStore(tmp_path).lifetime_search_stats()
        assert stats == {"from_cache": 3, "trained": 3}

    def test_no_cache_study_trains_everything_and_stores_nothing(self, tmp_path):
        result = run_search_study(
            "seeds",
            budget=3,
            seed=0,
            space=small_space(),
            use_cache=False,
            cache_dir=tmp_path,  # must be ignored entirely
            batch_size=3,
        )
        assert result.n_trained == 3
        assert len(ResultStore(tmp_path)) == 0

    def test_on_grid_trials_hit_the_suite_sweeps_design_points(self, tmp_path):
        from repro.analysis.experiments import run_benchmark_suite

        store = ResultStore(tmp_path)
        (suite,) = run_benchmark_suite(
            datasets=("seeds",), include_approximate_baseline=False,
            depths=(5,), taus=(0.01,), store=store,
        )

        class StubSampler:
            """Asks exactly one fixed on-grid configuration."""

            def __init__(self, config):
                self.config = config
                self.asked = False

            def ask(self, n):
                if self.asked:
                    return []
                self.asked = True
                return [dict(self.config)]

            def tell(self, config, objectives):
                pass

        config = {
            "depth": 5, "tau": 0.01, "resolution_bits": 4,
            "technology": "default", "training_sigma": 0.0,
            "robustness_weight": 1.0,
        }
        study = Study("seeds", store=store, sampler=StubSampler(config))
        stores_before = store.stats.stores
        [trial] = study.run(budget=1).trials
        [point] = suite.exploration
        assert trial.from_cache
        assert store.stats.stores == stores_before  # nothing trained or rewritten
        assert trial.accuracy == point.accuracy
        assert trial.power_uw == point.hardware.total_power_uw
        assert store.get(study.trial_key(config)) == point


class TestCacheOnly:
    """The strict assemble discipline: a --cache-only study never trains."""

    def test_cache_only_requires_use_cache(self, tmp_path):
        with pytest.raises(ValueError, match="cache_only"):
            Study(
                "seeds", space=small_space(), use_cache=False, cache_only=True,
                store=ResultStore(tmp_path),
            )

    def test_cold_store_raises_listing_trial_keys(self, tmp_path):
        from repro.core.sharding import MissingResultsError

        study = Study(
            "seeds", space=small_space(), cache_only=True,
            store=ResultStore(tmp_path),
        )
        with pytest.raises(MissingResultsError) as excinfo:
            study.run(budget=3)
        assert all(label.startswith("point:seeds[d=") for label, _ in
                   excinfo.value.missing)

    def test_warm_store_replays_without_training(self, tmp_path):
        store = ResultStore(tmp_path)
        kwargs = dict(budget=4, seed=0, space=small_space(), batch_size=2)
        cold = run_search_study("seeds", store=store, **kwargs)
        warm = run_search_study("seeds", store=store, cache_only=True, **kwargs)
        assert warm.n_trained == 0 and warm.n_from_cache == 4
        for a, b in zip(cold.trials, warm.trials):
            assert a.config == b.config
            assert a.objectives == b.objectives

    def test_missing_variation_entries_also_listed(self, tmp_path):
        """With a sigma the drop objective needs the per-sigma variation
        entries; a store warm on trials but cold on variation must fail
        naming the variation keys."""
        from repro.core.sharding import MissingResultsError

        store = ResultStore(tmp_path)
        kwargs = dict(budget=3, seed=0, space=small_space(), batch_size=3)
        run_search_study("seeds", store=store, **kwargs)  # trials only
        study = Study(
            "seeds",
            objectives=("-accuracy", "mean_accuracy_drop"),
            sigma_v=0.02,
            variation_trials=4,
            space=small_space(),
            cache_only=True,
            store=store,
            seed=0,
        )
        with pytest.raises(MissingResultsError) as excinfo:
            study.run(budget=3)
        labels = [label for label, _ in excinfo.value.missing]
        assert labels and all(
            label.startswith("variation:seeds[d=") and "sigma=0.02]" in label
            for label in labels
        )

    def test_cached_point_simulates_its_cached_tree(self, tmp_path):
        """A trial whose point is cached but whose variation entry is not
        computes only the Monte-Carlo, bit-identical to a cold study."""
        kwargs = dict(
            budget=3, seed=0, space=small_space(), batch_size=3,
            objectives=("-accuracy", "mean_accuracy_drop"),
            sigma_v=0.02, variation_trials=4,
        )
        store = ResultStore(tmp_path)
        run_search_study(
            "seeds", store=store, budget=3, seed=0, space=small_space(),
            batch_size=3,
        )  # points only
        stores_before = store.stats.stores
        warm_points = run_search_study("seeds", store=store, **kwargs)
        assert store.stats.stores - stores_before == 3  # variation entries only
        cold = run_search_study("seeds", use_cache=False, **kwargs)
        assert warm_points.n_trained == 3
        assert [t.record() for t in warm_points.trials] == [
            t.record() for t in cold.trials
        ]


class TestStudyResultShape:
    def test_record_fields_and_front_property(self, tmp_path):
        result = run_search_study(
            "seeds",
            budget=4,
            seed=0,
            space=small_space(),
            store=ResultStore(tmp_path),
            batch_size=2,
        )
        record = json.loads(result.to_json())
        assert record["schema_version"] == 1
        assert record["kind"] == "search_study"
        assert record["n_trials"] == len(record["trials"]) == 4
        assert set(record["front"]) <= {t["number"] for t in record["trials"]}
        front = result.front
        assert [t.number for t in front] == list(result.front_numbers)
        # Front is sorted by objective tuple and mutually non-dominating.
        objectives = [t.objectives for t in front]
        assert objectives == sorted(objectives)
