"""Unit tests for the EGFET standard-cell library."""

import pickle

import pytest

from repro.pdk.cells import (
    GATE_EQUIVALENT_AREA_MM2,
    GATE_EQUIVALENT_POWER_UW,
    Cell,
    CellLibrary,
    and_cell_for,
    egfet_cell_library,
    or_cell_for,
)


class TestCell:
    def test_cell_holds_declared_values(self):
        cell = Cell(name="X1", n_inputs=2, gate_equivalents=1.0, area_mm2=0.1, power_uw=2.0)
        assert cell.name == "X1"
        assert cell.n_inputs == 2
        assert cell.area_mm2 == pytest.approx(0.1)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            Cell(name="BAD", n_inputs=-1, gate_equivalents=1.0, area_mm2=0.1, power_uw=1.0)

    def test_negative_area_rejected(self):
        with pytest.raises(ValueError):
            Cell(name="BAD", n_inputs=1, gate_equivalents=1.0, area_mm2=-0.1, power_uw=1.0)


class TestEgfetLibrary:
    @pytest.fixture(scope="class")
    def library(self):
        return egfet_cell_library()

    def test_contains_core_cells(self, library):
        for name in ["INV", "NAND2", "AND2", "OR2", "AND4", "OR4", "XOR2", "MUX2", "BUF"]:
            assert name in library

    def test_constants_have_zero_cost(self, library):
        assert library["CONST0"].area_mm2 == 0.0
        assert library["CONST1"].power_uw == 0.0

    def test_nand2_is_the_gate_equivalent(self, library):
        nand = library["NAND2"]
        assert nand.gate_equivalents == pytest.approx(1.0)
        assert nand.area_mm2 == pytest.approx(GATE_EQUIVALENT_AREA_MM2)
        assert nand.power_uw == pytest.approx(GATE_EQUIVALENT_POWER_UW)

    def test_and2_larger_than_nand2(self, library):
        assert library["AND2"].area_mm2 > library["NAND2"].area_mm2

    def test_area_and_power_scale_with_gate_equivalents(self, library):
        for cell in library:
            assert cell.area_mm2 == pytest.approx(cell.gate_equivalents * GATE_EQUIVALENT_AREA_MM2)
            assert cell.power_uw == pytest.approx(cell.gate_equivalents * GATE_EQUIVALENT_POWER_UW)

    def test_lookup_helpers(self, library):
        assert library.area_of("INV") == library["INV"].area_mm2
        assert library.power_of("INV") == library["INV"].power_uw

    def test_unknown_cell_raises_keyerror_with_hint(self, library):
        with pytest.raises(KeyError, match="not in library"):
            library["FOO42"]

    def test_names_sorted(self, library):
        names = library.names()
        assert names == sorted(names)
        assert len(names) == len(library)

    def test_add_replaces_cell(self):
        library = CellLibrary("test", [Cell("A", 1, 1.0, 0.1, 1.0)])
        library.add(Cell("A", 1, 2.0, 0.2, 2.0))
        assert len(library) == 1
        assert library["A"].area_mm2 == pytest.approx(0.2)


class TestLibraryValueSemantics:
    def test_equal_libraries_compare_and_hash_equal(self):
        first = CellLibrary("lib", [Cell("A", 1, 1.0, 0.1, 1.0)])
        second = CellLibrary("lib", [Cell("A", 1, 1.0, 0.1, 1.0)])
        assert first == second
        assert hash(first) == hash(second)

    def test_different_cells_compare_unequal(self):
        first = CellLibrary("lib", [Cell("A", 1, 1.0, 0.1, 1.0)])
        second = CellLibrary("lib", [Cell("A", 1, 2.0, 0.2, 2.0)])
        assert first != second

    def test_add_after_hashing_changes_the_hash_and_keeps_equality(self):
        first = CellLibrary("lib", [Cell("A", 1, 1.0, 0.1, 1.0)])
        second = CellLibrary("lib", [Cell("A", 1, 1.0, 0.1, 1.0)])
        before = hash(first)
        for library in (first, second):
            library.add(Cell("B", 2, 1.0, 0.1, 1.0))
        assert hash(first) != before
        assert first == second
        assert hash(first) == hash(second)
        first.add(Cell("B", 2, 2.0, 0.2, 2.0))
        assert first != second

    def test_cached_hash_is_not_pickled(self):
        library = egfet_cell_library()
        state = pickle.dumps(library)
        hash(library)
        assert pickle.dumps(library) == state
        assert hash(pickle.loads(state)) == hash(library)

    def test_technology_embedding_a_library_stays_hashable(self):
        from repro.pdk.egfet import default_technology

        assert hash(default_technology()) == hash(default_technology())


class TestWidthHelpers:
    @pytest.mark.parametrize(
        "width, expected",
        [(1, "BUF"), (2, "AND2"), (3, "AND3"), (4, "AND4"), (7, "AND4")],
    )
    def test_and_cell_for(self, width, expected):
        assert and_cell_for(width) == expected

    @pytest.mark.parametrize(
        "width, expected",
        [(1, "BUF"), (2, "OR2"), (3, "OR3"), (4, "OR4"), (9, "OR4")],
    )
    def test_or_cell_for(self, width, expected):
        assert or_cell_for(width) == expected
