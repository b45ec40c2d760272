"""Synthesis primitives: constant comparators, AND/OR trees, SOP mapping.

These functions append gates to an existing :class:`~repro.circuits.netlist.Netlist`
and return the net carrying the synthesized function.  They are the building
blocks used by the baseline bespoke decision trees (binary comparators against
hardwired thresholds, as in [2]) and by the proposed unary architecture (pure
two-level AND-OR label logic, Fig. 2b).

All builders perform constant propagation where it is free, because bespoke
design is precisely about exploiting hardwired model parameters to shrink
logic.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuits.netlist import Netlist
from repro.circuits.two_level import SumOfProducts
from repro.pdk.cells import and_cell_for, or_cell_for


def _reduce_tree(netlist: Netlist, nets: Sequence[str], kind: str) -> str:
    """Reduce ``nets`` with a balanced tree of AND/OR cells (max fan-in 4)."""
    if not nets:
        raise ValueError("cannot reduce an empty net list")
    level = list(nets)
    cell_for = and_cell_for if kind == "and" else or_cell_for
    while len(level) > 4:
        level = [
            group[0] if len(group) == 1 else netlist.add_gate(cell_for(len(group)), group)
            for group in [level[index:index + 4] for index in range(0, len(level), 4)]
        ]
    if len(level) == 1:
        return level[0]
    return netlist.add_gate(cell_for(len(level)), level)


def synthesize_and_tree(netlist: Netlist, nets: Sequence[str]) -> str:
    """AND together ``nets`` (returns a constant-1 net when empty)."""
    if not nets:
        return netlist.add_constant(True)
    if len(nets) == 1:
        return nets[0]
    return _reduce_tree(netlist, nets, "and")


def synthesize_or_tree(netlist: Netlist, nets: Sequence[str]) -> str:
    """OR together ``nets`` (returns a constant-0 net when empty)."""
    if not nets:
        return netlist.add_constant(False)
    if len(nets) == 1:
        return nets[0]
    return _reduce_tree(netlist, nets, "or")


def synthesize_constant_comparator(
    netlist: Netlist,
    input_bits: Sequence[str],
    constant: int,
    operation: str = ">=",
) -> str:
    """Synthesize ``input >= constant`` (or a related comparison) in bespoke logic.

    Parameters
    ----------
    netlist:
        Netlist receiving the gates.
    input_bits:
        Input net names ordered **MSB first**.
    constant:
        The hardwired model parameter, interpreted as an unsigned integer of
        ``len(input_bits)`` bits.
    operation:
        One of ``">="``, ``">"``, ``"<"``, ``"<="``.

    Returns
    -------
    str
        Net carrying the comparison result.

    Notes
    -----
    Because the threshold is a hardwired constant, the classic MSB-first
    comparison recurrence collapses into a chain of single AND/OR gates with
    constant propagation (this is the "bespoke" effect exploited by [2]):

    * bit of constant is 0:  ``ge_i = x_i OR ge_{i+1}``
    * bit of constant is 1:  ``ge_i = x_i AND ge_{i+1}``

    with ``ge_n = 1`` (all bits equal means the input is >= the constant).
    """
    n_bits = len(input_bits)
    if n_bits == 0:
        raise ValueError("comparator needs at least one input bit")
    if not 0 <= constant < 2 ** n_bits:
        raise ValueError(
            f"constant {constant} does not fit in {n_bits} unsigned bits"
        )
    if operation not in {">=", ">", "<", "<="}:
        raise ValueError(f"unsupported comparison operation {operation!r}")

    # ">" against C is ">=" against C+1; saturate at the maximum code, where
    # ">" is simply unsatisfiable.
    if operation in {">", "<="}:
        threshold = constant + 1
        if threshold >= 2 ** n_bits:
            always_false = netlist.add_constant(False)
            if operation == ">":
                return always_false
            return netlist.add_constant(True)
    else:
        threshold = constant

    # ``ge`` net computing input >= threshold.
    if threshold == 0:
        ge_net = netlist.add_constant(True)
    else:
        bits = [(threshold >> shift) & 1 for shift in range(n_bits - 1, -1, -1)]
        ge_net: str | None = None  # None encodes the constant-1 tail
        for bit_net, bit_value in zip(reversed(input_bits), reversed(bits)):
            if bit_value == 1:
                if ge_net is None:
                    ge_net = bit_net
                else:
                    ge_net = netlist.add_gate("AND2", [bit_net, ge_net])
            else:
                if ge_net is None:
                    continue  # x OR 1 == 1
                ge_net = netlist.add_gate("OR2", [bit_net, ge_net])
        if ge_net is None:  # threshold had no set bits above; defensive
            ge_net = netlist.add_constant(True)

    if operation in {">=", ">"}:
        return ge_net
    return netlist.add_gate("INV", [ge_net])


def synthesize_sop(
    netlist: Netlist,
    sop: SumOfProducts,
    variable_nets: dict[str, str],
    inverted_nets: dict[str, str] | None = None,
) -> str:
    """Map a :class:`SumOfProducts` onto AND/OR/INV cells.

    Walks the cubes in :attr:`~SumOfProducts.terms` order, each cube's
    literals in string order: one AND tree per cube, one OR tree over them,
    and one ``INV`` per negated variable, at its first use.

    Parameters
    ----------
    netlist:
        Netlist receiving the gates.
    sop:
        The two-level function to synthesize.
    variable_nets:
        Mapping from SOP variable name to the net carrying it.
    inverted_nets:
        Optional cache of already-synthesized inverted variables, shared
        across multiple SOP outputs so each input is inverted at most once.

    Returns
    -------
    str
        Net carrying the function value.
    """
    if sop.is_false():
        return netlist.add_constant(False)
    if sop.is_true():
        return netlist.add_constant(True)

    if inverted_nets is None:
        inverted_nets = {}

    term_nets: list[str] = []
    for literals in sop.literal_lists():
        literal_nets: list[str] = []
        for name, positive in literals:
            if positive:
                literal_nets.append(variable_nets[name])
                continue
            inverted = inverted_nets.get(name)
            if inverted is None:
                inverted = inverted_nets[name] = netlist.add_gate("INV", [variable_nets[name]])
            literal_nets.append(inverted)
        term_nets.append(synthesize_and_tree(netlist, literal_nets))
    return synthesize_or_tree(netlist, term_nets)
