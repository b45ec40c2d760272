"""Tests for one benchmark's co-design flow: reference designs and selection.

The flow runs on small registered benchmarks: the reference designs train on
:meth:`~repro.core.design.DesignSpec.data`'s split, which only resolves
registered benchmark names.
"""

import dataclasses
import pickle

import pytest

from repro.analysis.experiments import _resolve_units, clear_memo, run_benchmark_suite
from repro.mltrees import cart
from repro.core.codesign import CoDesignResult, reference_designs, select_designs
from repro.core.design import DesignSpec
from repro.core.executor import SerialExecutor
from repro.core.sharding import suite_work_unit
from repro.core.store import ResultStore

GRID = dict(depths=(2, 3, 4), taus=(0.0, 0.01, 0.03))


@pytest.fixture(scope="module")
def result():
    (result,) = run_benchmark_suite(
        ("seeds",), seed=0, include_approximate_baseline=True, store=None, **GRID
    )
    return result


class TestCoDesignRun:
    def test_result_structure(self, result):
        assert isinstance(result, CoDesignResult)
        assert result.dataset == "seeds"
        assert result.baseline.hardware.n_tree_comparators > 0
        assert result.unary_bespoke_adc.hardware.n_tree_comparators == 0
        assert len(result.exploration) == 9
        assert result.approximate_baseline is not None

    def test_baseline_and_unary_share_model_accuracy(self, result):
        assert result.baseline.accuracy == pytest.approx(
            result.unary_bespoke_adc.accuracy
        )
        assert result.baseline.depth == result.unary_bespoke_adc.depth

    def test_fig4_gains_positive(self, result):
        reduction = result.fig4_reduction()
        assert reduction.area_factor > 1.0
        assert reduction.power_factor > 1.0

    def test_selected_designs_meet_their_accuracy_constraints(self, result):
        for loss, design in result.selected.items():
            assert design.accuracy >= result.baseline.accuracy - loss - 1e-9

    def test_selected_designs_monotone_in_loss_budget(self, result):
        losses = sorted(result.selected)
        powers = [result.selected[loss].hardware.total_power_uw for loss in losses]
        assert all(b <= a + 1e-9 for a, b in zip(powers, powers[1:]))

    def test_table2_reduction_vs_baseline(self, result):
        reduction = result.table2_reduction(0.01)
        assert reduction is not None
        assert reduction.area_factor > 1.0
        assert reduction.power_factor > 1.0

    def test_table2_reduction_vs_approximate(self, result):
        reduction = result.table2_reduction_vs_approximate(0.01)
        assert reduction is not None
        assert reduction.power_factor > 0.0

    def test_self_power_analysis_available(self, result):
        analysis = result.self_power(0.01)
        assert analysis is not None
        assert analysis.sensor_power_mw > 0
        assert analysis.harvester_budget_mw == pytest.approx(2.0)

    def test_missing_loss_threshold_returns_none(self, result):
        assert result.fig5_reduction(0.42) is None
        assert result.table2_reduction(0.42) is None
        assert result.self_power(0.42) is None

    def test_metadata_carries_technology_and_abbreviation(self, result, technology):
        assert result.metadata["technology"] == technology
        assert result.metadata["abbreviation"] == "SE"


class TestReferenceDesigns:
    def test_equal_the_suite_result_without_its_exploration(self, result):
        reference = reference_designs(DesignSpec("seeds", 0), True)
        assert reference == dataclasses.replace(result, exploration=[], selected={})
        assert select_designs(reference, result.exploration) == result

    def test_ignore_the_grid_point_and_training_knobs(self):
        aware = DesignSpec("SE", 0, 7, 0.03, training_sigma=0.04)
        assert reference_designs(aware, False) == reference_designs(
            DesignSpec("seeds", 0), False
        )

    def test_cost_every_design_under_the_spec_technology(self, technology):
        steep = dataclasses.replace(
            technology,
            comparator=dataclasses.replace(
                technology.comparator,
                power_per_level_uw=2 * technology.comparator.power_per_level_uw,
            ),
        )
        nominal = reference_designs(DesignSpec("seeds", 0), True)
        custom = reference_designs(DesignSpec("seeds", 0, technology=steep), True)
        assert custom.metadata["technology"] is steep
        for name in ("baseline", "unary_bespoke_adc", "approximate_baseline"):
            assert getattr(custom, name).accuracy == getattr(nominal, name).accuracy
            assert (
                getattr(custom, name).hardware.adc_power_uw
                > getattr(nominal, name).hardware.adc_power_uw
            )

    def test_approximate_baseline_can_be_skipped(self):
        reference = reference_designs(DesignSpec("seeds", 0), False)
        assert reference.approximate_baseline is None
        assert reference.exploration == [] and reference.selected == {}
        (result,) = run_benchmark_suite(
            ("seeds",), include_approximate_baseline=False,
            depths=(2,), taus=(0.0,), store=None,
        )
        assert result.approximate_baseline is None
        assert result.table2_reduction_vs_approximate(0.01) is None


class TestTableIITwin:
    """A Table II reference extends its stored Table I twin with [7] only."""

    @pytest.mark.parametrize("dataset", ["seeds", "vertebral_2c"])
    def test_store_loaded_twin_pickles_like_a_computed_reference(self, dataset, tmp_path):
        spec = DesignSpec(dataset, 0)
        store = ResultStore(tmp_path)
        store.put(spec.reference_key(False), reference_designs(spec, False))
        twin = store.get(spec.reference_key(False))
        assert pickle.dumps(reference_designs(spec, True, twin=twin)) == pickle.dumps(
            reference_designs(spec, True)
        )

    def test_suite_fits_only_baseline_7_from_a_stored_twin(self, tmp_path, monkeypatch):
        spec = DesignSpec("seeds", 0)
        fresh = ResultStore(tmp_path / "fresh")
        run_benchmark_suite(("seeds",), store=fresh, depths=(2,), taus=(0.0,))
        store = ResultStore(tmp_path / "twin")
        run_benchmark_suite(
            ("seeds",), store=store, include_approximate_baseline=False,
            depths=(2,), taus=(0.0,),
        )
        clear_memo()

        def no_baseline_sweep(*args, **kwargs):
            raise AssertionError("baseline [2] was refitted next to its twin")

        monkeypatch.setattr(cart, "fit_baseline_tree", no_baseline_sweep)
        misses = store.stats.misses
        run_benchmark_suite(("seeds",), store=store, depths=(2,), taus=(0.0,))
        assert store.stats.misses == misses + 1, "only the Table II reference misses"
        key = spec.reference_key(True)
        assert store.path_for(key).read_bytes() == fresh.path_for(key).read_bytes()

    def test_twin_from_the_same_call(self, monkeypatch):
        """Both variants in one fan-out: the Table II job extends the Table I value."""
        calls = []
        original = cart.fit_baseline_tree

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cart, "fit_baseline_tree", counting)
        units = [suite_work_unit("seeds", 0, variant) for variant in (True, False)]
        values, computed = _resolve_units(units, None, SerialExecutor())
        assert len(calls) == 1 and len(computed) == 2
        table1, table2 = (values[unit.store_key] for unit in reversed(units))
        assert pickle.dumps(table2) == pickle.dumps(
            reference_designs(DesignSpec("seeds", 0), True)
        )
        assert dataclasses.replace(table2, approximate_baseline=None) == table1


class TestFlowConfiguration:
    def test_spec_data_quantizes_and_splits(self):
        data = DesignSpec("seeds", 0).data()
        for levels in (data.X_train_levels, data.X_test_levels):
            assert levels.max() <= 15 and levels.min() >= 0
        assert len(data.X_train_levels) + len(data.X_test_levels) == (
            data.dataset.n_samples
        )
        assert len(data.y_test) == len(data.X_test_levels)
        assert len(data.y_train) == len(data.X_train_levels)

    def test_runs_are_reproducible(self):
        def run_once():
            (result,) = run_benchmark_suite(
                ("vertebral_2c",), seed=7, include_approximate_baseline=False,
                depths=(2, 3), taus=(0.0, 0.02), store=None,
            )
            return result

        first, second = run_once(), run_once()
        assert first is not second
        assert first == second
