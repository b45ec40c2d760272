"""Integer-cube two-level logic against the object-based reference.

:class:`~repro.circuits.two_level.SumOfProducts` minimizes
``(positive_mask, negative_mask)`` cubes built straight from a tree's node
arrays, and ``synthesize_sop`` walks them; the frozenset / ``Literal`` path
they replaced is kept in ``tests/oracles/two_level_reference.py``.  Every
grid tree of a benchmark (the depth x tau protocol grid at seed 0), every
baseline [2] depth and a precision-scaled baseline [7] tree must give the
same minimized cubes, the same gates in the same order and the same cost
report on both sides.  Random SOPs -- with contradictory, duplicate and
empty terms -- must minimize to the same term sets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import two_level_reference as reference
from repro.analysis.experiments import FAST_DATASETS
from repro.baselines.balaskas import approximate_tree
from repro.baselines.mubarik import build_comparator_tree_netlist
from repro.circuits.area_power import estimate_netlist
from repro.circuits.two_level import Literal, SumOfProducts
from repro.circuits.verilog import netlist_to_verilog
from repro.core.design import DesignSpec, split_data
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS
from repro.core.unary_tree import UnaryDecisionTree
from repro.datasets.registry import dataset_names
from repro.mltrees.cart import CARTTrainer
from repro.pdk.egfet import default_technology

SLOW_DATASETS = tuple(name for name in dataset_names() if name not in FAST_DATASETS)
TECHNOLOGY = default_technology()


def _grid_trees(dataset: str):
    """The 49 depth x tau grid trees of ``dataset`` at seed 0."""
    deepest = max(DEFAULT_DEPTHS)
    for tau in DEFAULT_TAUS:
        tree = DesignSpec(dataset, 0, deepest, tau).train()
        for depth in DEFAULT_DEPTHS:
            yield tree.truncated(depth)


def _baseline_trees(dataset: str):
    """Baseline [2]'s CART depth sweep, each also precision-scaled as in [7]."""
    data = split_data(dataset)
    for depth in range(1, max(DEFAULT_DEPTHS) + 1):
        tree = CARTTrainer(max_depth=depth, seed=0).fit(
            data.X_train_levels, data.y_train, data.n_classes
        )
        bits = {feature: 2 + feature % 2 for feature in tree.used_features()}
        yield tree, None
        yield approximate_tree(tree, bits), None
        yield tree, bits


def _gates(netlist):
    return [(gate.cell, gate.inputs, gate.output) for gate in netlist.gates]


def _assert_same_netlist(netlist, expected):
    assert netlist.inputs == expected.inputs
    assert netlist.outputs == expected.outputs
    assert _gates(netlist) == _gates(expected)
    report, expected_report = (
        estimate_netlist(netlist, TECHNOLOGY), estimate_netlist(expected, TECHNOLOGY)
    )
    assert report.area_mm2 == expected_report.area_mm2
    assert report.power_uw == expected_report.power_uw
    assert report.n_gates == expected_report.n_gates
    assert report.cell_counts == expected_report.cell_counts


def _check_dataset(dataset: str):
    for tree in _grid_trees(dataset):
        unary = UnaryDecisionTree(tree)
        logic = reference.unary_label_logic(tree)
        for label in range(tree.n_classes):
            assert unary.label_logic[label].terms == logic[label].terms
        _assert_same_netlist(unary.to_netlist(), reference.unary_netlist(tree))
        _assert_same_netlist(
            build_comparator_tree_netlist(tree), reference.comparator_tree_netlist(tree)
        )
    for tree, bits in _baseline_trees(dataset):
        _assert_same_netlist(
            build_comparator_tree_netlist(tree, per_feature_bits=bits),
            reference.comparator_tree_netlist(tree, per_feature_bits=bits),
        )


class TestGridEquivalence:
    @pytest.mark.parametrize("dataset", FAST_DATASETS)
    def test_fast_datasets(self, dataset):
        _check_dataset(dataset)

    @pytest.mark.slow
    @pytest.mark.parametrize("dataset", SLOW_DATASETS)
    def test_remaining_datasets(self, dataset):
        _check_dataset(dataset)

    def test_verilog_export_matches(self):
        tree = DesignSpec("seeds", 0, 6, 0.0).train()
        assert netlist_to_verilog(UnaryDecisionTree(tree).to_netlist()) == (
            netlist_to_verilog(reference.unary_netlist(tree))
        )
        assert netlist_to_verilog(build_comparator_tree_netlist(tree)) == (
            netlist_to_verilog(reference.comparator_tree_netlist(tree))
        )


VARIABLES = ["a", "b", "c", "d", "e"]
literals = st.builds(Literal, name=st.sampled_from(VARIABLES), positive=st.booleans())
term_lists = st.lists(st.lists(literals, min_size=0, max_size=5), min_size=0, max_size=10)


class TestRandomSOPs:
    @given(term_lists)
    @settings(max_examples=300, deadline=None)
    def test_minimized_terms_match_the_reference(self, terms):
        sop = SumOfProducts(terms)
        expected = reference.ReferenceSumOfProducts(terms)
        assert sop.terms == expected.terms
        assert sop.minimized().terms == expected.minimized().terms
        assert sop.n_literals == expected.n_literals
        assert sop.variables() == expected.variables()

    @given(term_lists, st.lists(st.booleans(), min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_evaluate_matches_the_reference(self, terms, bits):
        assignment = dict(zip(VARIABLES, bits))
        sop = SumOfProducts(terms)
        expected = reference.ReferenceSumOfProducts(terms)
        assert sop.evaluate(assignment) == expected.evaluate(assignment)
        assert sop.minimized().evaluate(assignment) == expected.evaluate(assignment)

    def test_contradictory_duplicate_and_empty_terms(self):
        a, b = Literal("a"), Literal("b")
        terms = [[a, a.negate()], [a, b], [b, a], [], [b.negate()]]
        sop = SumOfProducts(terms)
        assert sop.terms == reference.ReferenceSumOfProducts(terms).terms
        assert sop.n_terms == 3
        assert sop.is_true() and sop.minimized().is_true()

    def test_missing_variable_raises_key_error(self):
        sop = SumOfProducts([[Literal("a"), Literal("b", False)]])
        with pytest.raises(KeyError):
            sop.evaluate({"a": True})
        assert sop.evaluate({"a": True, "b": False}) is True

    def test_evaluate_stops_at_the_first_term_that_fires(self):
        # Terms are tested in ``terms`` order: ``a`` fires before ``b`` is read.
        sop = SumOfProducts([[Literal("b")], [Literal("a")]])
        assert sop.evaluate({"a": True}) is True
        with pytest.raises(KeyError):
            sop.evaluate({"a": False})
