"""Two-level (sum-of-products) logic as integer cubes.

Section III-A of the paper shows that, once the inputs are available as
parallel unary digits, every class label of a bespoke decision tree reduces to
"simple two-level logic (e.g. AND-OR)" over those digits (Fig. 2b).  This
module provides the :class:`SumOfProducts` container used to express that
logic, together with a lightweight minimizer (duplicate removal, containment
absorption, and complementary single-literal reduction) that captures the
obvious simplifications a synthesis tool would perform.

A :class:`SumOfProducts` keeps an ordered variable table and stores each
product term as a *cube*: a ``(positive_mask, negative_mask)`` pair of Python
ints, where bit ``i`` of a mask stands for the table's variable ``i``.  The
minimizer works on the masks; the synthesis walk
(:func:`~repro.circuits.synthesis.synthesize_sop`) and the bit-parallel kernel
read each term's ``(name, positive)`` pairs from :meth:`SumOfProducts.literal_lists`.
:class:`Literal` objects appear only at the public edges (the ``terms`` view
and the constructor).  :func:`tree_label_logic` builds the per-class cubes of a
decision tree straight from its root-to-leaf paths.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Literal:
    """A possibly negated boolean variable reference."""

    name: str
    positive: bool = True

    def negate(self) -> "Literal":
        """Return the complementary literal."""
        return Literal(self.name, not self.positive)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Value of the literal under ``assignment``."""
        value = bool(assignment[self.name])
        return value if self.positive else not value

    def __str__(self) -> str:
        return self.name if self.positive else f"!{self.name}"


#: A product term: ``(positive_mask, negative_mask)`` over a variable table.
Cube = tuple[int, int]


def _bit_indices(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


class SumOfProducts:
    """A boolean function expressed as an OR of AND terms.

    The empty SOP is the constant ``False``; an SOP containing the empty term
    is the constant ``True``.  Terms that contain a variable and its
    complement are dropped.
    """

    def __init__(self, terms: Iterable[Iterable[Literal]] = ()):
        self._variables: tuple[str, ...] = ()
        self._cubes: set[Cube] = set()
        self._ordered: list[list[tuple[str, bool]]] | None = None
        for term in terms:
            self.add_term(term)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def false(cls) -> "SumOfProducts":
        """The constant-false function."""
        return cls()

    @classmethod
    def true(cls) -> "SumOfProducts":
        """The constant-true function."""
        return cls([frozenset()])

    @classmethod
    def from_cubes(cls, variables: Sequence[str], cubes: Iterable[Cube]) -> "SumOfProducts":
        """The SOP of ``cubes`` over the variable table ``variables``.

        Bit ``i`` of each mask stands for ``variables[i]``; contradictory
        cubes (a bit set in both masks) are dropped.
        """
        sop = cls()
        sop._variables = tuple(variables)
        sop._cubes = {cube for cube in cubes if not cube[0] & cube[1]}
        return sop

    def add_term(self, literals: Iterable[Literal]) -> None:
        """Add one product term (ignored if it is contradictory)."""
        index = {name: i for i, name in enumerate(self._variables)}
        positive = negative = 0
        for literal in literals:
            bit = 1 << index.setdefault(literal.name, len(index))
            if literal.positive:
                positive |= bit
            else:
                negative |= bit
        if not positive & negative:
            self._cubes.add((positive, negative))
        self._variables = tuple(index)
        self._ordered = None

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def literal_lists(self) -> list[list[tuple[str, bool]]]:
        """Per term of :attr:`terms`, its ``(name, positive)`` literals in string order.

        Terms sort by ``(literal count, sorted literal strings)`` and the
        literals of a term by their string (``"!name"`` when negated), read
        off the bits of the packed cube ``positive << width | negative``.
        """
        if self._ordered is None:
            names = self._variables
            width = len(names)
            texts = ["!" + name for name in names] + list(names)
            keyed = []
            for positive, negative in self._cubes:
                bits = _bit_indices(positive << width | negative)
                bits.sort(key=texts.__getitem__)
                keyed.append((len(bits), [texts[bit] for bit in bits], bits))
            keyed.sort()
            self._ordered = [
                [(names[bit % width], bit >= width) for bit in bits] for _, _, bits in keyed
            ]
        return self._ordered

    @property
    def terms(self) -> list[frozenset[Literal]]:
        """The product terms in a deterministic order."""
        return [
            frozenset(Literal(name, sign) for name, sign in literals)
            for literals in self.literal_lists()
        ]

    @property
    def n_terms(self) -> int:
        """Number of product terms."""
        return len(self._cubes)

    @property
    def n_literals(self) -> int:
        """Total literal count (the classic two-level cost metric)."""
        return sum((positive | negative).bit_count() for positive, negative in self._cubes)

    def variables(self) -> set[str]:
        """Names of every variable referenced by the function."""
        return {name for literals in self.literal_lists() for name, _ in literals}

    def is_false(self) -> bool:
        """True when the SOP is the constant-false function."""
        return not self._cubes

    def is_true(self) -> bool:
        """True when the SOP contains the empty (always-true) term."""
        return (0, 0) in self._cubes

    # ------------------------------------------------------------------ #
    # semantics
    # ------------------------------------------------------------------ #
    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the function under a complete variable assignment.

        Terms are tested in :attr:`terms` order and the first one that fires
        ends the evaluation; ``KeyError`` is raised when a variable read
        before then is missing.
        """
        return any(
            all(bool(assignment[name]) == positive for name, positive in literals)
            for literals in self.literal_lists()
        )

    # ------------------------------------------------------------------ #
    # minimization
    # ------------------------------------------------------------------ #
    def minimized(self) -> "SumOfProducts":
        """Return an equivalent SOP with the obvious redundancy removed.

        The minimizer applies, to a fixed point:

        * duplicate-term removal (by construction of the cube set),
        * single-variable resolution: two cubes differing only in the
          polarity of one variable merge into the common remainder -- each
          cube looks its one-bit partner ``(p ^ b, n ^ b)`` up in the set,
        * containment absorption: a cube is kept only if no shorter kept
          cube is a subset of it (that cube already covers it).

        This is not a full Quine-McCluskey pass, but for the shallow
        AND-OR label logic of bespoke decision trees (one product term per
        decision path) it removes exactly the redundancies that matter for
        the area model.
        """
        # Each cube packs into one int, ``positive << width | negative``, so a
        # one-variable flip is one XOR and a subset test one AND.
        width = len(self._variables)
        low = (1 << width) - 1
        cubes = {positive << width | negative for positive, negative in self._cubes}
        changed = True
        while changed:
            merged: set[int] = set()
            consumed: set[int] = set()
            for cube in cubes:
                variables = (cube | cube >> width) & low
                while variables:
                    bit = variables & -variables
                    variables ^= bit
                    flip = bit << width | bit
                    if cube ^ flip in cubes:
                        merged.add(cube & ~flip)
                        consumed.add(cube)  # the partner adds itself in turn
            kept: list[int] = []
            for cube in sorted((cubes - consumed) | merged, key=int.bit_count):
                outside = ~cube
                for shorter in kept:
                    if not shorter & outside:
                        break
                else:
                    kept.append(cube)
            changed = set(kept) != cubes
            cubes = set(kept)
        return SumOfProducts.from_cubes(
            self._variables, [(cube >> width, cube & low) for cube in cubes]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SumOfProducts):
            return NotImplemented
        return self.literal_lists() == other.literal_lists()  # canonical term order

    def __hash__(self) -> int:
        return hash(frozenset(self.terms))

    def __str__(self) -> str:
        if self.is_false():
            return "0"
        if self.is_true():
            return "1"
        parts = []
        for term in self.terms:
            lits = sorted(map(str, term))
            parts.append(" & ".join(lits) if lits else "1")
        return " | ".join(f"({p})" for p in parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SumOfProducts(n_terms={self.n_terms}, n_literals={self.n_literals})"


def tree_label_logic(tree, node_variables: Sequence[str | None]) -> dict[int, SumOfProducts]:
    """Unminimized two-level logic of every class label of a decision tree.

    ``node_variables[i]`` names the variable decision node ``i`` reads
    (``None`` at leaves).  Each root-to-leaf path of ``tree.paths()``
    contributes one cube to the SOP of its leaf's class: taking the right
    branch (``x >= threshold``) at a node sets its variable's bit in the
    positive mask, the left branch in the negative one.  All labels share
    one variable table, the node variables sorted by name.
    """
    variables = tuple(sorted({name for name in node_variables if name is not None}))
    bit_of = {name: 1 << i for i, name in enumerate(variables)}
    node_bits = [0 if name is None else bit_of[name] for name in node_variables]
    cubes: list[set[Cube]] = [set() for _ in range(tree.n_classes)]
    prediction = tree.prediction.tolist()
    for leaf, conditions in tree.paths():
        positive = negative = 0
        for node, took_right in conditions:
            if took_right:
                positive |= node_bits[node]
            else:
                negative |= node_bits[node]
        cubes[prediction[leaf]].add((positive, negative))
    return {
        label: SumOfProducts.from_cubes(variables, label_cubes)
        for label, label_cubes in enumerate(cubes)
    }
