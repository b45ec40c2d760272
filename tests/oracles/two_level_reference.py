"""Object-based two-level logic, kept as the reference of the integer cubes.

Before :class:`~repro.circuits.two_level.SumOfProducts` stored its product
terms as ``(positive_mask, negative_mask)`` integer cubes, every term was a
``frozenset`` of :class:`~repro.circuits.two_level.Literal` objects, the
minimizer scanned all term pairs for single-variable resolution, the label
logic of a tree was built from :func:`tree_to_paths` (one
:class:`PathCondition` per branch, one ``Literal`` per condition), and
``synthesize_sop`` walked the sorted ``Literal`` frozensets.  This module
keeps those pieces, their logic unchanged (the netlist builders take the
tree instead of a translated unary tree):

* :class:`ReferenceSumOfProducts` -- the frozenset container and its
  pair-scan ``minimized()``;
* :func:`tree_to_paths` with :class:`PathCondition` / :class:`DecisionPath`;
* :func:`unary_label_logic` / :func:`comparator_label_logic` -- the label
  logic builders of the unary tree and of baseline [2]/[7];
* :func:`synthesize_sop`, :func:`unary_netlist` and
  :func:`comparator_tree_netlist` -- the netlists built from them.

The equivalence tests compare the minimized cube sets, the gate lists and
the cost reports of the production path against these.  No production path
uses them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.circuits.netlist import Netlist
from repro.circuits.synthesis import (
    synthesize_and_tree,
    synthesize_constant_comparator,
    synthesize_or_tree,
)
from repro.circuits.two_level import Literal
from repro.mltrees.tree import LEAF, DecisionTree


def _is_contradictory(term: frozenset[Literal]) -> bool:
    """True when a term contains both a variable and its complement."""
    names = {}
    for literal in term:
        if names.get(literal.name, literal.positive) != literal.positive:
            return True
        names[literal.name] = literal.positive
    return False


class ReferenceSumOfProducts:
    """A boolean function expressed as an OR of ``frozenset[Literal]`` terms."""

    def __init__(self, terms: Iterable[Iterable[Literal]] = ()):
        cleaned: set[frozenset[Literal]] = set()
        for term in terms:
            frozen = frozenset(term)
            if _is_contradictory(frozen):
                continue
            cleaned.add(frozen)
        self._terms: set[frozenset[Literal]] = cleaned

    def add_term(self, literals: Iterable[Literal]) -> None:
        """Add one product term (ignored if it is contradictory)."""
        frozen = frozenset(literals)
        if not _is_contradictory(frozen):
            self._terms.add(frozen)

    @property
    def terms(self) -> list[frozenset[Literal]]:
        """The product terms in a deterministic order."""
        return sorted(self._terms, key=lambda t: (len(t), sorted(map(str, t))))

    @property
    def n_terms(self) -> int:
        """Number of product terms."""
        return len(self._terms)

    @property
    def n_literals(self) -> int:
        """Total literal count."""
        return sum(len(term) for term in self._terms)

    def variables(self) -> set[str]:
        """Names of every variable referenced by the function."""
        return {literal.name for term in self._terms for literal in term}

    def is_false(self) -> bool:
        """True when the SOP is the constant-false function."""
        return not self._terms

    def is_true(self) -> bool:
        """True when the SOP contains the empty (always-true) term."""
        return any(len(term) == 0 for term in self._terms)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the function under a complete variable assignment."""
        return any(
            all(literal.evaluate(assignment) for literal in term)
            for term in self._terms
        )

    def minimized(self) -> "ReferenceSumOfProducts":
        """Duplicate removal, containment absorption and single-variable
        resolution to a fixed point, over all term pairs."""
        terms = set(self._terms)
        changed = True
        while changed:
            changed = False
            # single-variable resolution
            merged: set[frozenset[Literal]] = set()
            consumed: set[frozenset[Literal]] = set()
            term_list = sorted(terms, key=lambda t: (len(t), sorted(map(str, t))))
            for i, term_a in enumerate(term_list):
                for term_b in term_list[i + 1:]:
                    if len(term_a) != len(term_b):
                        continue
                    diff_a = term_a - term_b
                    diff_b = term_b - term_a
                    if len(diff_a) == 1 and len(diff_b) == 1:
                        lit_a = next(iter(diff_a))
                        lit_b = next(iter(diff_b))
                        if lit_a.name == lit_b.name and lit_a.positive != lit_b.positive:
                            merged.add(term_a & term_b)
                            consumed.add(term_a)
                            consumed.add(term_b)
            if merged:
                terms = (terms - consumed) | merged
                changed = True
            # containment absorption
            kept: set[frozenset[Literal]] = set()
            for term in sorted(terms, key=lambda t: (len(t), sorted(map(str, t)))):
                if not any(other <= term for other in kept):
                    kept.add(term)
            if kept != terms:
                terms = kept
                changed = True
        result = ReferenceSumOfProducts()
        result._terms = terms
        return result


@dataclass(frozen=True)
class PathCondition:
    """One condition along a decision path.

    ``is_ge`` is True for the right-branch condition ``x[feature] >= level``
    and False for the complementary left-branch condition ``x[feature] < level``.
    """

    feature: int
    level: int
    is_ge: bool

    def __str__(self) -> str:
        op = ">=" if self.is_ge else "<"
        return f"I{self.feature} {op} {self.level}"


@dataclass(frozen=True)
class DecisionPath:
    """A root-to-leaf path: the conjunction of conditions implying a class."""

    conditions: tuple[PathCondition, ...]
    prediction: int
    n_samples: int


def tree_to_paths(tree: DecisionTree) -> list[DecisionPath]:
    """Extract every root-to-leaf decision path of ``tree``, in pre-order."""
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    prediction, n_samples = tree.prediction.tolist(), tree.n_samples.tolist()
    # One condition object per branch, shared by every path through it.
    condition = {
        (node, took_right): PathCondition(feature[node], threshold[node], is_ge=took_right)
        for node in np.flatnonzero(tree.feature != LEAF).tolist()
        for took_right in (False, True)
    }
    return [
        DecisionPath(
            conditions=tuple(map(condition.__getitem__, conditions)),
            prediction=prediction[leaf],
            n_samples=n_samples[leaf],
        )
        for leaf, conditions in tree.paths()
    ]


def unary_label_logic(tree: DecisionTree) -> dict[int, ReferenceSumOfProducts]:
    """Minimized label logic of the unary tree, one ``Literal`` per condition."""
    logic: dict[int, ReferenceSumOfProducts] = {
        label: ReferenceSumOfProducts() for label in range(tree.n_classes)
    }
    for path in tree_to_paths(tree):
        term = [
            Literal(f"I{cond.feature}_u{cond.level}", positive=cond.is_ge)
            for cond in path.conditions
        ]
        logic[path.prediction].add_term(term)
    return {label: sop.minimized() for label, sop in logic.items()}


def comparator_label_logic(tree: DecisionTree) -> dict[int, ReferenceSumOfProducts]:
    """Minimized label logic of baseline [2]/[7] over comparator outputs."""
    label_logic: dict[int, ReferenceSumOfProducts] = {
        label: ReferenceSumOfProducts() for label in range(tree.n_classes)
    }
    for leaf, conditions in tree.paths():
        term = [
            Literal(f"cmp_{node_id}", positive=took_right)
            for node_id, took_right in conditions
        ]
        label_logic[int(tree.prediction[leaf])].add_term(term)
    return {label: sop.minimized() for label, sop in label_logic.items()}


def synthesize_sop(
    netlist: Netlist,
    sop: ReferenceSumOfProducts,
    variable_nets: dict[str, str],
    inverted_nets: dict[str, str] | None = None,
) -> str:
    """Map a :class:`ReferenceSumOfProducts` onto AND/OR/INV cells."""
    if sop.is_false():
        return netlist.add_constant(False)
    if sop.is_true():
        return netlist.add_constant(True)

    if inverted_nets is None:
        inverted_nets = {}

    term_nets: list[str] = []
    for term in sop.terms:
        literal_nets: list[str] = []
        for literal in sorted(term, key=str):
            source = variable_nets[literal.name]
            if literal.positive:
                literal_nets.append(source)
            else:
                if literal.name not in inverted_nets:
                    inverted_nets[literal.name] = netlist.add_gate("INV", [source])
                literal_nets.append(inverted_nets[literal.name])
        term_nets.append(synthesize_and_tree(netlist, literal_nets))
    return synthesize_or_tree(netlist, term_nets)


def unary_netlist(tree: DecisionTree, name: str = "unary_tree") -> Netlist:
    """The unary tree's netlist, synthesized from :func:`unary_label_logic`."""
    logic = unary_label_logic(tree)
    required = tree.required_levels()
    netlist = Netlist(name)
    variable_nets = {
        variable: netlist.add_input(variable)
        for variable in (
            f"I{feature}_u{level}"
            for feature in sorted(required)
            for level in required[feature]
        )
    }
    inverted: dict[str, str] = {}
    for label in range(tree.n_classes):
        output = synthesize_sop(netlist, logic[label], variable_nets, inverted)
        target = f"class_{label}"
        netlist.add_gate("BUF", [output], output=target)
        netlist.add_output(target)
    netlist.validate()
    return netlist


def comparator_tree_netlist(
    tree: DecisionTree,
    name: str = "baseline_tree",
    per_feature_bits: dict[int, int] | None = None,
) -> Netlist:
    """Baseline [2]/[7]'s comparator tree, with :func:`comparator_label_logic`."""
    resolution = tree.resolution_bits
    per_feature_bits = per_feature_bits or {}
    netlist = Netlist(name)

    bit_nets: dict[int, list[str]] = {}
    for feature in tree.used_features():
        bits = per_feature_bits.get(feature, resolution)
        bits = min(max(int(bits), 1), resolution)
        nets = [
            netlist.add_input(f"I{feature}_b{bit}")
            for bit in range(resolution - 1, resolution - bits - 1, -1)
        ]
        bit_nets[feature] = nets

    comparator_nets: dict[int, str] = {}
    features, thresholds = tree.feature.tolist(), tree.threshold.tolist()
    for node in tree.preorder():
        feature, level = features[node], thresholds[node]
        if feature == LEAF:
            continue
        constant = max(level >> (resolution - len(bit_nets[feature])), 1)
        comparator_nets[node] = synthesize_constant_comparator(
            netlist, bit_nets[feature], constant, operation=">="
        )

    label_logic = comparator_label_logic(tree)
    variable_nets = {f"cmp_{node_id}": net for node_id, net in comparator_nets.items()}
    inverted: dict[str, str] = {}
    for label in range(tree.n_classes):
        output = synthesize_sop(netlist, label_logic[label], variable_nets, inverted)
        target = f"class_{label}"
        netlist.add_gate("BUF", [output], output=target)
        netlist.add_output(target)
    netlist.validate()
    return netlist
