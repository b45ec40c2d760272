"""Standard-cell library for the behavioral EGFET technology.

Printed EGFET gates are orders of magnitude larger and slower than silicon
cells.  The library below expresses every cell in *gate equivalents* (GE),
where one GE corresponds to a 2-input NAND.  The absolute GE area and power
are calibrated so that the digital blocks reported in the paper come out in
the published range:

* a 15-to-4 priority encoder (~78 GE) costs about 10.1 mm2 and 0.39 mW,
  which is the difference between the conventional 4-bit flash ADC
  (11 mm2 / 0.83 mW, Section III-B) and the full 15-comparator bank plus
  ladder (~0.6 mm2 / ~0.44 mW, Fig. 3);
* a bespoke 4-bit comparator node of the baseline decision trees [2],
  together with its share of the label logic, lands around 1 mm2 / 40-60 uW,
  consistent with the digital share of Table I.

Power values are average power at the paper's 20 Hz operating frequency and
1 V supply; at such low frequencies EGFET power is dominated by static
consumption, so the model treats cell power as activity-independent.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Area of one gate equivalent (a 2-input NAND) in mm^2.
GATE_EQUIVALENT_AREA_MM2 = 0.13

#: Average power of one gate equivalent in uW (1 V supply, 20 Hz).
GATE_EQUIVALENT_POWER_UW = 5.0


@dataclass(frozen=True)
class Cell:
    """A combinational or sequential standard cell.

    Attributes
    ----------
    name:
        Library name of the cell (e.g. ``"NAND2"``).
    n_inputs:
        Number of logic inputs.
    gate_equivalents:
        Size of the cell expressed in 2-input-NAND equivalents.
    area_mm2:
        Printed area of the cell.
    power_uw:
        Average power of the cell at the nominal operating point.
    """

    name: str
    n_inputs: int
    gate_equivalents: float
    area_mm2: float
    power_uw: float

    def __post_init__(self) -> None:
        if self.n_inputs < 0:
            raise ValueError(f"cell {self.name!r}: n_inputs must be >= 0")
        if self.area_mm2 < 0 or self.power_uw < 0:
            raise ValueError(f"cell {self.name!r}: area and power must be >= 0")


def _cell(name: str, n_inputs: int, gate_equivalents: float) -> Cell:
    """Build a :class:`Cell` from its size in gate equivalents."""
    return Cell(
        name=name,
        n_inputs=n_inputs,
        gate_equivalents=gate_equivalents,
        area_mm2=gate_equivalents * GATE_EQUIVALENT_AREA_MM2,
        power_uw=gate_equivalents * GATE_EQUIVALENT_POWER_UW,
    )


class CellLibrary:
    """A named collection of :class:`Cell` objects with lookup helpers."""

    #: Cached :meth:`__hash__`; not pickled (string hashes differ per process).
    _hash: int | None = None

    def __init__(self, name: str, cells: list[Cell]):
        self.name = name
        self._cells: dict[str, Cell] = {}
        for cell in cells:
            self.add(cell)

    def add(self, cell: Cell) -> None:
        """Register ``cell``, replacing any previous cell of the same name."""
        self._cells[cell.name] = cell
        self._hash = None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __getitem__(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(
                f"cell {name!r} is not in library {self.name!r}; "
                f"available cells: {sorted(self._cells)}"
            ) from None

    def get(self, name: str) -> Cell:
        """Alias of ``library[name]`` kept for readability at call sites."""
        return self[name]

    def names(self) -> list[str]:
        """Return the sorted list of cell names in the library."""
        return sorted(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self):
        return iter(self._cells.values())

    def area_of(self, name: str) -> float:
        """Area in mm^2 of the named cell."""
        return self[name].area_mm2

    def power_of(self, name: str) -> float:
        """Average power in uW of the named cell."""
        return self[name].power_uw

    def __eq__(self, other: object) -> bool:
        """Value equality: same name and same cells.

        Technology objects embed the library, and experiment results embed
        the technology; value equality here is what lets two equally
        configured runs (serial vs parallel, this process vs a worker)
        compare equal end to end.
        """
        if not isinstance(other, CellLibrary):
            return NotImplemented
        return self.name == other.name and self._cells == other._cells

    def __hash__(self) -> int:
        """Value hash consistent with ``__eq__``.

        Kept (rather than dropping to unhashable) because the frozen
        ``EGFETTechnology`` dataclass embeds the library and must stay
        hashable.  Mutating a library after using it as a hash key is the
        caller's foot-gun, same as any hashable-by-value container.  The
        hash is computed once and recomputed after :meth:`add` (technology
        lookups hash the library on every design-point key).
        """
        if self._hash is None:
            self._hash = hash((self.name, frozenset(self._cells.items())))
        return self._hash

    def __getstate__(self) -> dict:
        return {key: value for key, value in vars(self).items() if key != "_hash"}

    def canonical_form(self) -> dict:
        """Primitive rendering used by the result store's cache keys.

        The default ``repr`` only exposes name and cell count; the cache key
        must change whenever any cell's cost changes, so every cell
        participates here.
        """
        return {"name": self.name, "cells": {n: self._cells[n] for n in sorted(self._cells)}}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CellLibrary(name={self.name!r}, n_cells={len(self)})"


def egfet_cell_library() -> CellLibrary:
    """Build the default printed-EGFET standard-cell library.

    The relative cell sizes follow classic gate-equivalent accounting
    (an AND is a NAND plus an inverter, a 2:1 MUX is about 2.5 GE, a flip
    flop about 5 GE); the absolute scale is set by
    :data:`GATE_EQUIVALENT_AREA_MM2` / :data:`GATE_EQUIVALENT_POWER_UW`.
    """
    cells = [
        _cell("CONST0", 0, 0.0),
        _cell("CONST1", 0, 0.0),
        _cell("BUF", 1, 0.5),
        _cell("INV", 1, 0.5),
        _cell("NAND2", 2, 1.0),
        _cell("NAND3", 3, 1.5),
        _cell("NAND4", 4, 2.0),
        _cell("NOR2", 2, 1.0),
        _cell("NOR3", 3, 1.5),
        _cell("NOR4", 4, 2.0),
        _cell("AND2", 2, 1.5),
        _cell("AND3", 3, 2.0),
        _cell("AND4", 4, 2.5),
        _cell("OR2", 2, 1.5),
        _cell("OR3", 3, 2.0),
        _cell("OR4", 4, 2.5),
        _cell("XOR2", 2, 2.5),
        _cell("XNOR2", 2, 2.5),
        _cell("MUX2", 3, 2.5),
        _cell("AOI21", 3, 1.5),
        _cell("OAI21", 3, 1.5),
        _cell("DFF", 2, 5.0),
    ]
    return CellLibrary("egfet_behavioral_v1", cells)


def and_cell_for(width: int) -> str:
    """Return the widest library AND cell usable for ``width`` inputs.

    Wider AND/OR functions are decomposed by the synthesis code into trees of
    these cells, so this helper only needs to cover the native widths.
    """
    if width <= 1:
        return "BUF"
    if width == 2:
        return "AND2"
    if width == 3:
        return "AND3"
    return "AND4"


def or_cell_for(width: int) -> str:
    """Return the widest library OR cell usable for ``width`` inputs."""
    if width <= 1:
        return "BUF"
    if width == 2:
        return "OR2"
    if width == 3:
        return "OR3"
    return "OR4"
