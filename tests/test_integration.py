"""End-to-end integration tests.

These tests tie every layer together on one real benchmark dataset: dataset
synthesis -> quantization/splitting -> training (conventional and ADC-aware)
-> unary translation -> bespoke ADC generation -> gate-level synthesis ->
functional equivalence -> hardware costing -> self-power analysis.
"""

import numpy as np
import pytest

from oracles.unary_scalar import predict_from_digits
from repro.analysis.experiments import run_benchmark_suite
from repro.baselines.mubarik import BaselineBespokeDesign
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.bespoke_adc import build_bespoke_frontend
from repro.core.exploration import proposed_hardware_report
from repro.core.power_budget import analyze_self_power
from repro.core.unary_tree import UnaryDecisionTree
from repro.datasets.registry import load_dataset
from repro.mltrees.cart import fit_baseline_tree
from repro.mltrees.evaluation import accuracy_score, train_test_split
from repro.mltrees.quantize import quantize_dataset


@pytest.fixture(scope="module")
def seeds_split():
    dataset = load_dataset("seeds", seed=0)
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=0
    )
    return (
        dataset,
        quantize_dataset(X_train),
        quantize_dataset(X_test),
        y_train,
        y_test,
    )


class TestFullStackOnSeeds:
    def test_baseline_pipeline_end_to_end(self, seeds_split, technology):
        dataset, X_train, X_test, y_train, y_test = seeds_split
        fit = fit_baseline_tree(X_train, y_train, X_test, y_test, dataset.n_classes)
        assert fit.test_accuracy > 0.8

        baseline = BaselineBespokeDesign(fit.tree, technology)
        report = baseline.hardware_report()
        # Table I shape: baseline cannot be powered by a printed harvester.
        assert report.total_power_mw > 2.0
        assert report.adc_power_fraction > 0.5

        # The synthesized baseline netlist is functionally the trained tree.
        sample = X_test[:20]
        np.testing.assert_array_equal(
            np.array([baseline.netlist_predict_one_level(r) for r in sample]),
            fit.tree.predict_levels(sample),
        )

    def test_proposed_pipeline_end_to_end(self, seeds_split, technology):
        dataset, X_train, X_test, y_train, y_test = seeds_split
        fit = fit_baseline_tree(X_train, y_train, X_test, y_test, dataset.n_classes)

        unary = UnaryDecisionTree(fit.tree)
        frontend = build_bespoke_frontend(unary, technology)
        proposed = proposed_hardware_report(fit.tree, technology)
        baseline = BaselineBespokeDesign(fit.tree, technology).hardware_report()

        # Fig. 4 shape: the same model gets cheaper in the proposed architecture.
        assert proposed.total_area_mm2 < baseline.total_area_mm2
        assert proposed.total_power_uw < baseline.total_power_uw
        assert proposed.n_adc_comparators < baseline.n_adc_comparators

        # Full physical path: analog front end digits -> unary logic -> class.
        expected = fit.tree.predict_levels(X_test[:30])
        raw = X_test[:30] / 16.0
        for row, label in zip(raw, expected):
            assert predict_from_digits(unary, frontend.convert(row)) == label

    def test_adc_aware_training_end_to_end(self, seeds_split, technology):
        dataset, X_train, X_test, y_train, y_test = seeds_split
        fit = fit_baseline_tree(X_train, y_train, X_test, y_test, dataset.n_classes)

        aware = ADCAwareTrainer(max_depth=fit.depth, gini_threshold=0.01, seed=0).fit(
            X_train, y_train, dataset.n_classes
        )
        aware_accuracy = accuracy_score(y_test, aware.predict_levels(X_test))
        assert aware_accuracy >= fit.test_accuracy - 0.05

        aware_hw = proposed_hardware_report(aware, technology)
        analysis = analyze_self_power(aware_hw, technology)
        # Table II headline: the co-designed classifier is self-powered.
        assert analysis.is_self_powered

    def test_codesign_flow_on_real_benchmark(self):
        (result,) = run_benchmark_suite(
            ("vertebral_3c",),
            seed=0,
            include_approximate_baseline=True,
            depths=(2, 3, 4, 5),
            taus=(0.0, 0.01, 0.03),
            store=None,
        )

        assert result.baseline.hardware.total_power_mw > 2.0
        fig4 = result.fig4_reduction()
        assert fig4.area_factor > 1.5
        assert fig4.power_factor > 1.5

        table2 = result.table2_reduction(0.01)
        assert table2 is not None
        assert table2.area_factor > 2.0
        assert table2.power_factor > 2.0

        self_power = result.self_power(0.01)
        assert self_power is not None and self_power.is_self_powered
