"""Unit tests for the netlist data structure."""

import pytest

from repro.circuits.netlist import Netlist, NetlistError


class TestNetlistConstruction:
    def test_basic_and_gate(self):
        netlist = Netlist("basic")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        out = netlist.add_gate("AND2", [a, b], output="y")
        netlist.add_output(out)
        assert netlist.inputs == ["a", "b"]
        assert netlist.outputs == ["y"]
        assert netlist.n_gates == 1
        netlist.validate()

    def test_new_net_names_are_unique(self):
        netlist = Netlist("nets")
        names = {netlist.new_net() for _ in range(50)}
        assert len(names) == 50

    def test_auto_generated_output_net(self):
        netlist = Netlist("auto")
        a = netlist.add_input("a")
        out = netlist.add_gate("INV", [a])
        assert out.startswith("n")
        assert netlist.driver_of(out).cell == "INV"

    def test_double_driver_rejected(self):
        netlist = Netlist("double")
        a = netlist.add_input("a")
        netlist.add_gate("INV", [a], output="y")
        with pytest.raises(NetlistError):
            netlist.add_gate("BUF", [a], output="y")

    def test_driving_a_primary_input_rejected(self):
        netlist = Netlist("drive_input")
        a = netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_gate("INV", [a], output="a")

    def test_declaring_driven_net_as_input_rejected(self):
        netlist = Netlist("input_conflict")
        a = netlist.add_input("a")
        netlist.add_gate("INV", [a], output="y")
        with pytest.raises(NetlistError):
            netlist.add_input("y")

    def test_duplicate_gate_name_rejected(self):
        netlist = Netlist("dupname")
        a = netlist.add_input("a")
        netlist.add_gate("INV", [a], name="u1")
        with pytest.raises(NetlistError):
            netlist.add_gate("BUF", [a], name="u1")

    def test_constants(self):
        netlist = Netlist("constants")
        one = netlist.add_constant(True)
        zero = netlist.add_constant(False)
        assert netlist.driver_of(one).cell == "CONST1"
        assert netlist.driver_of(zero).cell == "CONST0"


class TestNetlistIntrospection:
    def test_cell_histogram(self):
        netlist = Netlist("hist")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        netlist.add_gate("AND2", [a, b])
        netlist.add_gate("AND2", [a, b])
        netlist.add_gate("INV", [a])
        histogram = netlist.cell_histogram()
        assert histogram["AND2"] == 2
        assert histogram["INV"] == 1

    def test_nets_collects_all_names(self):
        netlist = Netlist("nets")
        a = netlist.add_input("a")
        out = netlist.add_gate("INV", [a], output="y")
        assert netlist.nets() == {"a", "y"}
        assert out == "y"


class TestValidationAndOrdering:
    def test_undriven_gate_input_detected(self):
        netlist = Netlist("undriven")
        netlist.add_gate("INV", ["ghost"], output="y")
        with pytest.raises(NetlistError, match="no driver"):
            netlist.validate()

    def test_undriven_output_detected(self):
        netlist = Netlist("undriven_out")
        netlist.add_output("nowhere")
        with pytest.raises(NetlistError):
            netlist.validate()

    def test_topological_order_respects_dependencies(self):
        netlist = Netlist("topo")
        a = netlist.add_input("a")
        n1 = netlist.add_gate("INV", [a])
        n2 = netlist.add_gate("INV", [n1])
        netlist.add_gate("AND2", [n1, n2], output="y")
        order = [gate.output for gate in netlist.topological_order()]
        assert order.index(n1) < order.index(n2) < order.index("y")

    def test_cycle_detected(self):
        netlist = Netlist("cycle")
        netlist.add_gate("INV", ["b"], output="a")
        netlist.add_gate("INV", ["a"], output="b")
        with pytest.raises(NetlistError, match="cycle"):
            netlist.topological_order()

    def test_validate_rejects_a_cycle(self):
        netlist = Netlist("cycle")
        netlist.add_gate("INV", ["b"], output="a")
        netlist.add_gate("INV", ["a"], output="b")
        with pytest.raises(NetlistError, match="cycle"):
            netlist.validate()

    def test_validate_accepts_gates_out_of_order(self):
        # A gate may read the output of a gate added after it; only the
        # one-pass in-order check falls through to the full check.
        netlist = Netlist("late_driver")
        a = netlist.add_input("a")
        netlist.add_gate("INV", ["n_late"], output="y")
        netlist.add_gate("BUF", [a], output="n_late")
        netlist.add_output("y")
        netlist.validate()

    def test_validate_names_the_first_undriven_input_out_of_order(self):
        netlist = Netlist("late_and_undriven")
        netlist.add_gate("INV", ["n_late"], output="y")
        netlist.add_gate("BUF", ["ghost"], output="n_late")
        with pytest.raises(NetlistError, match="'ghost' has no driver"):
            netlist.validate()
