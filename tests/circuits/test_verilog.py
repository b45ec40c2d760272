"""Unit tests for the structural Verilog exporter."""

import re

import pytest

from pathlib import Path

from repro.circuits.netlist import Netlist
from repro.circuits.synthesis import synthesize_constant_comparator
from repro.circuits.verilog import (
    netlist_to_verilog,
    sanitize_identifier,
    verilog_net_names,
)
from repro.core.unary_tree import UnaryDecisionTree
from repro.mltrees.tree import LEAF, DecisionTree

FIXTURES = Path(__file__).parent / "fixtures"


def _simple_netlist() -> Netlist:
    netlist = Netlist("demo_block")
    a = netlist.add_input("a")
    b = netlist.add_input("b")
    n1 = netlist.add_gate("AND2", [a, b])
    netlist.add_gate("INV", [n1], output="y")
    netlist.add_output("y")
    return netlist


class TestSanitizeIdentifier:
    def test_valid_names_untouched(self):
        assert sanitize_identifier("I3_u11") == "I3_u11"
        assert sanitize_identifier("class_0") == "class_0"

    def test_invalid_characters_replaced(self):
        assert sanitize_identifier("a-b.c") == "a_b_c"

    def test_leading_digit_prefixed(self):
        result = sanitize_identifier("3net")
        assert re.match(r"^[A-Za-z_]", result)
        assert sanitize_identifier("3x") == "n_3x"

    def test_verilog_keywords_escaped(self):
        for keyword in ("output", "wire", "module", "assign", "input"):
            escaped = sanitize_identifier(keyword)
            assert escaped == keyword + "_"

    def test_keyword_escape_can_collide_with_a_real_net(self):
        # 'output' escapes to 'output_', the same identifier a raw net named
        # 'output_' already owns -- verilog_net_names must keep them apart.
        netlist = Netlist("escape_collision")
        netlist.add_input("output")
        netlist.add_input("output_")
        netlist.add_gate("AND2", ["output", "output_"], output="y")
        netlist.add_output("y")
        names = verilog_net_names(netlist)
        assert names["output"] != names["output_"]
        assert len(set(names.values())) == len(names)


class TestVerilogNetNames:
    def test_identity_for_clean_names(self):
        netlist = _simple_netlist()
        names = verilog_net_names(netlist)
        assert names["a"] == "a" and names["b"] == "b" and names["y"] == "y"

    def test_collisions_deduplicated(self):
        netlist = Netlist("collide")
        netlist.add_input("sig nal")
        netlist.add_input("sig.nal")
        netlist.add_input("sig_nal")
        netlist.add_gate(
            "OR3", ["sig nal", "sig.nal", "sig_nal"], output="y"
        )
        netlist.add_output("y")
        names = verilog_net_names(netlist)
        sanitized = [names["sig nal"], names["sig.nal"], names["sig_nal"]]
        assert len(set(sanitized)) == 3  # all distinct after dedup
        assert all(name.startswith("sig_nal") for name in sanitized)

    def test_exporter_and_testbench_share_the_mapping(self):
        from repro.circuits.testbench import generate_verilog_testbench

        netlist = Netlist("ports")
        netlist.add_input("in put")
        netlist.add_input("in.put")
        netlist.add_gate("AND2", ["in put", "in.put"], output="y")
        netlist.add_output("y")
        names = verilog_net_names(netlist)
        dut = netlist_to_verilog(netlist)
        tb = generate_verilog_testbench(
            netlist, [{"in put": True, "in.put": False}]
        )
        for verilog_name in (names["in put"], names["in.put"]):
            assert f"input  wire {verilog_name};" in dut
            assert f".{verilog_name}({verilog_name})" in tb


class TestNetlistToVerilog:
    def test_module_structure(self):
        source = netlist_to_verilog(_simple_netlist())
        assert source.startswith("// Generated by repro.circuits.verilog")
        assert "module demo_block(" in source
        assert "input  wire a;" in source
        assert "input  wire b;" in source
        assert "output wire y;" in source
        assert source.rstrip().endswith("endmodule")

    def test_one_assign_per_gate(self):
        netlist = _simple_netlist()
        source = netlist_to_verilog(netlist)
        assert source.count("assign ") == netlist.n_gates

    def test_gate_expressions(self):
        source = netlist_to_verilog(_simple_netlist())
        assert re.search(r"assign n\d+ = a & b;", source)
        assert re.search(r"assign y = ~n\d+;", source)

    def test_constants_and_wide_gates(self):
        netlist = Netlist("consts")
        nets = [netlist.add_input(f"i{k}") for k in range(4)]
        netlist.add_gate("OR4", nets, output="any_set")
        netlist.add_constant(True, output="tied_high")
        netlist.add_output("any_set")
        netlist.add_output("tied_high")
        source = netlist_to_verilog(netlist)
        assert "assign any_set = i0 | i1 | i2 | i3;" in source
        assert "assign tied_high = 1'b1;" in source

    def test_custom_module_name(self):
        source = netlist_to_verilog(_simple_netlist(), module_name="my top!")
        assert "module my_top_(" in source

    def test_comparator_netlist_exports(self):
        netlist = Netlist("cmp")
        bits = [netlist.add_input(f"b{k}") for k in range(3, -1, -1)]
        out = synthesize_constant_comparator(netlist, bits, 11, ">=")
        netlist.add_gate("BUF", [out], output="ge")
        netlist.add_output("ge")
        source = netlist_to_verilog(netlist)
        assert "module cmp(" in source
        assert "assign ge =" in source

    def test_unary_tree_netlist_exports(self, small_tree):
        unary = UnaryDecisionTree(small_tree)
        source = netlist_to_verilog(unary.to_netlist("unary_tree"))
        for label in range(small_tree.n_classes):
            assert f"class_{label}" in source
        for variable in unary.digit_variables():
            assert variable in source

    def test_invalid_netlist_rejected(self):
        netlist = Netlist("broken")
        netlist.add_gate("INV", ["missing"], output="y")
        netlist.add_output("y")
        with pytest.raises(Exception):
            netlist_to_verilog(netlist)

    def test_unknown_cell_rejected(self):
        netlist = Netlist("weird")
        a = netlist.add_input("a")
        netlist.add_gate("DFF", [a, a], output="q")
        netlist.add_output("q")
        with pytest.raises(ValueError, match="does not know cell"):
            netlist_to_verilog(netlist)


def _golden_depth2_tree() -> DecisionTree:
    """A hand-built depth-2, 3-class tree: x0 >= 8 -> class 2, else x1 >= 4
    splits class 1 from class 0."""
    nodes = {
        "feature": [0, 1, LEAF, LEAF, LEAF],
        "threshold": [8, 4, 0, 0, 0],
        "left": [1, 3, 2, 3, 4],
        "right": [2, 4, 2, 3, 4],
        "prediction": [2, 0, 2, 0, 1],
        "n_samples": [16, 8, 8, 4, 4],
        "class_counts": [[4, 4, 8], [4, 4, 0], [0, 0, 8], [4, 0, 0], [0, 4, 0]],
        "node_depth": [0, 1, 1, 2, 2],
    }
    return DecisionTree(nodes, n_features=2, n_classes=3, resolution_bits=4)


class TestGoldenExport:
    def test_depth2_export_is_byte_identical_to_fixture(self):
        """The exported Verilog is deterministic down to the byte.

        Any intentional change to the export format must regenerate
        ``fixtures/golden_depth2.v`` and be reviewed as a diff of that file.
        """
        netlist = UnaryDecisionTree(_golden_depth2_tree()).to_netlist(
            "golden_depth2"
        )
        expected = (FIXTURES / "golden_depth2.v").read_text(encoding="utf-8")
        assert netlist_to_verilog(netlist) == expected

    def test_golden_netlist_semantics(self):
        """The fixture circuit implements the hand-built tree's logic."""
        netlist = UnaryDecisionTree(_golden_depth2_tree()).to_netlist(
            "golden_depth2"
        )
        # (x0 >= 8, x1 >= 4) -> one-hot class outputs
        cases = {
            (False, False): (True, False, False),
            (False, True): (False, True, False),
            (True, False): (False, False, True),
            (True, True): (False, False, True),
        }
        from repro.circuits.logic_sim import evaluate_outputs

        for (i0, i1), expected in cases.items():
            outputs = evaluate_outputs(netlist, {"I0_u8": i0, "I1_u4": i1})
            assert (
                outputs["class_0"], outputs["class_1"], outputs["class_2"]
            ) == expected
