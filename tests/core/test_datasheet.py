"""Unit tests for the classifier datasheet generator."""

import numpy as np
import pytest

from repro.core.datasheet import generate_datasheet
from repro.mltrees.cart import CARTTrainer


class TestGenerateDatasheet:
    @pytest.fixture(scope="class")
    def datasheet(self, small_tree, small_split, technology):
        _, X_test_levels, _, y_test = small_split
        return generate_datasheet(
            small_tree,
            name="unit-test classifier",
            technology=technology,
            feature_names=[f"sensor_{i}" for i in range(small_tree.n_features)],
            class_names=["alpha", "beta", "gamma"],
            X_test=X_test_levels / 16.0,
            y_test=y_test,
        )

    def test_title_and_sections_present(self, datasheet):
        assert "DATASHEET -- unit-test classifier" in datasheet
        for section in [
            "Model", "Bespoke ADC front end",
            "Digital label logic", "Area / power", "self-power:",
        ]:
            assert section in datasheet

    def test_model_summary_fields(self, datasheet, small_tree):
        assert f"depth {small_tree.depth}" in datasheet
        assert f"{small_tree.n_decision_nodes} decision" in datasheet
        assert "test accuracy:" in datasheet

    def test_adc_spec_lists_used_inputs(self, datasheet, small_tree):
        for feature in small_tree.used_features():
            assert f"sensor_{feature}" in datasheet
        assert "-UD" in datasheet

    def test_power_budget_and_timing(self, datasheet):
        assert "sampling period" in datasheet
        assert "harvester budget" in datasheet
        assert ("self-power: YES" in datasheet) or ("self-power: NO" in datasheet)

    def test_without_evaluation_set(self, small_tree, technology):
        datasheet = generate_datasheet(small_tree, technology=technology)
        assert "test accuracy" not in datasheet
        assert "DATASHEET" in datasheet

    def test_single_leaf_tree(self, technology):
        tree = CARTTrainer(max_depth=2).fit(
            np.array([[1, 2], [3, 4]]), np.array([1, 1]), n_classes=2
        )
        datasheet = generate_datasheet(tree, technology=technology)
        assert "no ADC channel required" in datasheet

    def test_minimizes_each_label_once(self, small_tree, technology, count_minimizations):
        generate_datasheet(small_tree, technology=technology)
        assert len(count_minimizations) == small_tree.n_classes

    def test_text_equals_the_separately_costed_tree(
        self, datasheet, small_tree, small_split, technology, monkeypatch
    ):
        # The datasheet costs its own unary tree; costing a fresh translation
        # through the public report, as it once did, renders the same bytes.
        from repro.core import datasheet as module
        from repro.core.design import proposed_hardware_report

        monkeypatch.setattr(
            module, "_unary_hardware_report",
            lambda unary, *args, **kwargs: proposed_hardware_report(
                unary.tree, *args, **kwargs
            ),
        )
        _, X_test_levels, _, y_test = small_split
        assert generate_datasheet(
            small_tree,
            name="unit-test classifier",
            technology=technology,
            feature_names=[f"sensor_{i}" for i in range(small_tree.n_features)],
            class_names=["alpha", "beta", "gamma"],
            X_test=X_test_levels / 16.0,
            y_test=y_test,
        ) == datasheet
