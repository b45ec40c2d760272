"""Unit tests for decision-path extraction.

``tree_to_paths`` is the reference path extraction kept in
``tests/oracles/two_level_reference.py``; production builds label logic
from :meth:`DecisionTree.paths` directly.
"""

import numpy as np

from oracles.two_level_reference import tree_to_paths
from repro.mltrees.cart import CARTTrainer


class TestTreeToPaths:
    def test_path_count_equals_leaf_count(self, small_tree):
        paths = tree_to_paths(small_tree)
        assert len(paths) == small_tree.n_leaves

    def test_path_lengths_bounded_by_depth(self, small_tree):
        for path in tree_to_paths(small_tree):
            assert len(path.conditions) <= small_tree.depth

    def test_path_conditions_route_to_their_leaf(self, small_tree):
        """Any sample satisfying a path's conditions is predicted that path's class."""
        rng = np.random.default_rng(0)
        paths = tree_to_paths(small_tree)
        X = rng.integers(0, 16, size=(300, small_tree.n_features))
        predictions = small_tree.predict_levels(X)
        for path in paths:
            mask = np.ones(len(X), dtype=bool)
            for condition in path.conditions:
                column = X[:, condition.feature]
                if condition.is_ge:
                    mask &= column >= condition.level
                else:
                    mask &= column < condition.level
            if mask.any():
                assert set(predictions[mask]) == {path.prediction}

    def test_paths_partition_sample_space(self, small_tree):
        """Every sample satisfies exactly one path."""
        rng = np.random.default_rng(1)
        paths = tree_to_paths(small_tree)
        X = rng.integers(0, 16, size=(100, small_tree.n_features))
        for row in X:
            matches = 0
            for path in paths:
                ok = all(
                    (row[c.feature] >= c.level) == c.is_ge for c in path.conditions
                )
                matches += ok
            assert matches == 1

    def test_single_leaf_tree(self):
        X_levels = np.array([[1], [2]])
        y = np.array([1, 1])
        tree = CARTTrainer(max_depth=2).fit(X_levels, y, n_classes=2)
        paths = tree_to_paths(tree)
        assert len(paths) == 1
        assert paths[0].conditions == ()
        assert paths[0].prediction == 1

    def test_condition_string_rendering(self, small_tree):
        path = tree_to_paths(small_tree)[0]
        if path.conditions:
            text = str(path.conditions[0])
            assert "I" in text and (">=" in text or "<" in text)

