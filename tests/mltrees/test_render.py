"""Unit tests for tree text/DOT rendering."""

import numpy as np

from repro.mltrees.cart import CARTTrainer
from repro.mltrees.render import render_tree_text, tree_to_dot


class TestRenderTreeText:
    def test_contains_every_decision_and_leaf(self, small_tree):
        text = render_tree_text(small_tree)
        assert text.count(">=") == small_tree.n_decision_nodes
        assert text.count("->") == small_tree.n_leaves

    def test_feature_and_class_names_used(self, small_tree):
        feature_names = [f"sensor_{i}" for i in range(small_tree.n_features)]
        class_names = ["alpha", "beta", "gamma"]
        text = render_tree_text(small_tree, feature_names, class_names)
        assert any(name in text for name in feature_names)
        assert any(name in text for name in class_names)

    def test_thresholds_on_quantization_grid(self, small_tree):
        text = render_tree_text(small_tree)
        assert "level" in text

    def test_single_leaf_tree(self):
        tree = CARTTrainer(max_depth=2).fit(
            np.array([[1, 2], [3, 4]]), np.array([0, 0]), n_classes=2
        )
        text = render_tree_text(tree)
        assert "->" in text and ">=" not in text


class TestTreeToDot:
    def test_structure(self, small_tree):
        dot = tree_to_dot(small_tree)
        assert dot.startswith("digraph decision_tree {")
        assert dot.rstrip().endswith("}")
        assert dot.count('[label="no"]') == small_tree.n_decision_nodes
        assert dot.count('[label="yes"]') == small_tree.n_decision_nodes
        # one node statement per tree node
        assert dot.count("n0 [") == 1

    def test_all_nodes_present(self, small_tree):
        dot = tree_to_dot(small_tree)
        for node in range(small_tree.n_nodes):
            assert f"n{node} " in dot or f"n{node} [" in dot

    def test_custom_graph_name_and_names(self, small_tree):
        dot = tree_to_dot(
            small_tree,
            feature_names=[f"s{i}" for i in range(small_tree.n_features)],
            class_names=["a", "b", "c"],
            graph_name="patch_tree",
        )
        assert "digraph patch_tree {" in dot
