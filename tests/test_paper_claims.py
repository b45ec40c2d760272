"""Qualitative paper-claim tests.

Each test here corresponds to one sentence-level claim of the paper and
checks it on small benchmarks so the whole module stays fast.  The full
quantitative regeneration of every table/figure lives in ``benchmarks/``.
"""

import pytest

from repro.adc.bespoke import BespokeADC
from repro.adc.flash import FlashADC
from repro.analysis.experiments import run_benchmark_suite
from repro.baselines.mubarik import BaselineBespokeDesign
from repro.core.exploration import proposed_hardware_report
from repro.core.power_budget import analyze_self_power
from repro.core.unary_tree import UnaryDecisionTree
from repro.datasets.registry import load_dataset
from repro.mltrees.cart import fit_baseline_tree
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.pdk.egfet import default_technology


@pytest.fixture(scope="module")
def technology():
    return default_technology()


@pytest.fixture(scope="module")
def codesign_results():
    """Full co-design runs on the three small benchmarks."""
    names = ("balance_scale", "vertebral_3c", "seeds")
    results = run_benchmark_suite(
        names, seed=0, include_approximate_baseline=False, store=None
    )
    return dict(zip(names, results))


class TestSectionIIIAClaims:
    """Section III-A: the unary architecture removes all tree comparators."""

    def test_unary_tree_has_no_comparators_and_matches_the_model(self, technology):
        dataset = load_dataset("seeds", seed=0)
        X_train, X_test, y_train, y_test = train_test_split(
            dataset.X, dataset.y, 0.3, seed=0
        )
        fit = fit_baseline_tree(
            quantize_dataset(X_train), y_train, quantize_dataset(X_test), y_test,
            dataset.n_classes,
        )
        unary = UnaryDecisionTree(fit.tree)
        report = proposed_hardware_report(fit.tree, technology)
        assert report.n_tree_comparators == 0
        # functional equivalence on the test set
        assert (unary.predict(X_test) == fit.tree.predict(X_test)).all()

    def test_each_label_is_two_level_logic(self, technology):
        dataset = load_dataset("balance_scale", seed=0)
        X_train, X_test, y_train, y_test = train_test_split(
            dataset.X, dataset.y, 0.3, seed=0
        )
        fit = fit_baseline_tree(
            quantize_dataset(X_train), y_train, quantize_dataset(X_test), y_test,
            dataset.n_classes,
        )
        unary = UnaryDecisionTree(fit.tree)
        for sop in unary.label_logic.values():
            # every product term only references unary digit variables
            for term in sop.terms:
                for literal in term:
                    assert literal.name.startswith("I")
                    assert "_u" in literal.name


class TestSectionIIIBClaims:
    """Section III-B: bespoke ADCs are dramatically cheaper than conventional."""

    def test_bespoke_adc_orders_of_magnitude_smaller(self, technology):
        conventional = FlashADC(4, technology)
        bespoke = BespokeADC((1, 2, 4, 7), technology=technology)
        assert conventional.area_mm2 / bespoke.area_mm2 > 20
        assert conventional.power_uw / bespoke.power_uw > 4

    def test_low_order_outputs_cost_less_power(self, technology):
        low = BespokeADC((1, 2), technology=technology)
        high = BespokeADC((14, 15), technology=technology)
        assert high.power_uw > 2 * low.power_uw


class TestSectionIVClaims:
    """Section IV: baselines exceed the harvester budget, co-designs fit it."""

    def test_no_baseline_is_self_powered(self, codesign_results, technology):
        for result in codesign_results.values():
            analysis = analyze_self_power(result.baseline.hardware, technology)
            assert not analysis.is_self_powered

    def test_adcs_dominate_baseline_power(self, codesign_results):
        for result in codesign_results.values():
            assert result.baseline.hardware.adc_power_fraction > 0.5

    def test_codesign_is_self_powered_at_one_percent_loss(self, codesign_results, technology):
        for result in codesign_results.values():
            chosen = result.selected.get(0.01)
            assert chosen is not None
            analysis = analyze_self_power(chosen.hardware, technology)
            assert analysis.is_self_powered

    def test_codesign_beats_baseline_by_integer_factors(self, codesign_results):
        for result in codesign_results.values():
            reduction = result.table2_reduction(0.01)
            assert reduction.area_factor > 2.0
            assert reduction.power_factor > 3.0

    def test_accuracy_loss_constraint_is_respected(self, codesign_results):
        for result in codesign_results.values():
            for loss, design in result.selected.items():
                assert design.accuracy >= result.baseline.accuracy - loss - 1e-9

    def test_unary_architecture_alone_already_wins(self, codesign_results):
        for result in codesign_results.values():
            reduction = result.fig4_reduction()
            assert reduction.area_factor > 1.0
            assert reduction.power_factor > 1.0

    def test_baseline_digital_part_smaller_share_than_adcs(self, technology):
        """40% of area / 74% of power of the baseline goes to ADCs (averages)."""
        dataset = load_dataset("vertebral_2c", seed=0)
        X_train, X_test, y_train, y_test = train_test_split(
            dataset.X, dataset.y, 0.3, seed=0
        )
        fit = fit_baseline_tree(
            quantize_dataset(X_train), y_train, quantize_dataset(X_test), y_test,
            dataset.n_classes,
        )
        report = BaselineBespokeDesign(fit.tree, technology).hardware_report()
        assert report.adc_power_fraction > report.adc_area_fraction
        assert report.adc_power_fraction > 0.6
