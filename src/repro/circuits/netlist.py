"""Gate-level netlist representation.

A :class:`Netlist` is a directed acyclic graph of :class:`Gate` instances
connected by named nets.  It intentionally stays technology-agnostic: gates
reference library cells by *name* and the actual area/power lookup happens in
:mod:`repro.circuits.area_power`.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import NamedTuple


class Gate(NamedTuple):
    """One instantiated cell (an immutable record).

    Attributes
    ----------
    name:
        Unique instance name inside the netlist.
    cell:
        Library cell name (e.g. ``"AND2"``).
    inputs:
        Ordered input net names.
    output:
        Output net name driven by this gate.
    """

    name: str
    cell: str
    inputs: tuple[str, ...]
    output: str


class NetlistError(ValueError):
    """Raised when a netlist is malformed (multiple drivers, loops, ...)."""


class Netlist:
    """A combinational gate-level netlist.

    Nets are identified by strings.  Primary inputs are declared with
    :meth:`add_input`; every other net must be driven by exactly one gate.
    Primary outputs are existing nets marked with :meth:`add_output`.
    """

    def __init__(self, name: str):
        self.name = name
        self._inputs: dict[str, None] = {}  # insertion-ordered set
        self._outputs: list[str] = []
        self._gates: list[Gate] = []
        self._drivers: dict[str, Gate] = {}
        self._gate_names: set[str] = set()
        self._net_counter = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_input(self, net: str) -> str:
        """Declare ``net`` as a primary input and return its name."""
        if net in self._drivers:
            raise NetlistError(f"net {net!r} is already driven by a gate")
        self._inputs[net] = None
        return net

    def add_output(self, net: str) -> str:
        """Mark ``net`` as a primary output and return its name."""
        if net not in self._outputs:
            self._outputs.append(net)
        return net

    def new_net(self, prefix: str = "n") -> str:
        """Return a fresh, unused internal net name."""
        while True:
            candidate = f"{prefix}{self._net_counter}"
            self._net_counter += 1
            if candidate not in self._drivers and candidate not in self._inputs:
                return candidate

    def add_gate(
        self,
        cell: str,
        inputs: list[str] | tuple[str, ...],
        output: str | None = None,
        name: str | None = None,
    ) -> str:
        """Instantiate ``cell`` and return the name of its output net.

        If ``output`` is omitted a fresh internal net is created.  Gate
        instance names are generated automatically unless provided.
        """
        if output is None:
            output_net = self.new_net()  # fresh: neither driven nor an input
        elif output in self._drivers:
            raise NetlistError(f"net {output!r} already has a driver")
        elif output in self._inputs:
            raise NetlistError(f"net {output!r} is a primary input")
        else:
            output_net = output
        gate_name = name if name is not None else f"g{len(self._gates)}"
        if gate_name in self._gate_names:
            raise NetlistError(f"gate name {gate_name!r} already used")
        gate = Gate(gate_name, cell, tuple(inputs), output_net)
        self._gates.append(gate)
        self._gate_names.add(gate_name)
        self._drivers[output_net] = gate
        return output_net

    def add_constant(self, value: bool, output: str | None = None) -> str:
        """Drive a net with a constant 0/1 cell and return the net name."""
        cell = "CONST1" if value else "CONST0"
        return self.add_gate(cell, [], output=output)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def inputs(self) -> list[str]:
        """Primary input net names, in declaration order."""
        return list(self._inputs)

    @property
    def outputs(self) -> list[str]:
        """Primary output net names, in declaration order."""
        return list(self._outputs)

    @property
    def gates(self) -> list[Gate]:
        """All gate instances, in insertion order."""
        return list(self._gates)

    @property
    def n_gates(self) -> int:
        """Number of gate instances (constants included)."""
        return len(self._gates)

    def driver_of(self, net: str) -> Gate | None:
        """Gate driving ``net``, or ``None`` for primary inputs."""
        return self._drivers.get(net)

    def cell_histogram(self) -> Counter[str]:
        """Count of instances per library cell name."""
        return Counter(gate.cell for gate in self._gates)

    def nets(self) -> set[str]:
        """All net names appearing in the netlist."""
        names: set[str] = set(self._inputs)
        for gate in self._gates:
            names.add(gate.output)
            names.update(gate.inputs)
        return names

    # ------------------------------------------------------------------ #
    # validation / ordering
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural sanity.

        Raises :class:`NetlistError` when a gate input or a primary output is
        undriven, or when the gate graph contains a combinational cycle.  A
        netlist whose gates read only primary inputs and the outputs of
        earlier gates (what every builder in this package appends) is acyclic
        by construction and is checked in one pass over the gates; any other
        gets the full driver check and Kahn's cycle check.
        """
        driven = set(self._inputs)
        in_order = True
        for gate in self._gates:
            in_order = in_order and driven.issuperset(gate.inputs)
            driven.add(gate.output)
        if not in_order:
            for gate in self._gates:
                for net in gate.inputs:
                    if net not in driven:
                        raise NetlistError(
                            f"gate {gate.name!r} input net {net!r} has no driver"
                        )
        for net in self._outputs:
            if net not in driven:
                raise NetlistError(f"primary output {net!r} has no driver")
        if not in_order:
            self.topological_order()  # raises on cycles

    def topological_order(self) -> list[Gate]:
        """Return gates in a valid evaluation order.

        Raises :class:`NetlistError` if the netlist contains a cycle.
        """
        consumers: dict[str, list[Gate]] = {}
        indegree: dict[str, int] = {}
        for gate in self._gates:
            count = 0
            for net in gate.inputs:
                if net in self._drivers:
                    count += 1
                    consumers.setdefault(net, []).append(gate)
            indegree[gate.name] = count

        ready = deque(gate for gate in self._gates if indegree[gate.name] == 0)
        order: list[Gate] = []
        while ready:
            gate = ready.popleft()
            order.append(gate)
            for consumer in consumers.get(gate.output, []):
                indegree[consumer.name] -= 1
                if indegree[consumer.name] == 0:
                    ready.append(consumer)
        if len(order) != len(self._gates):
            raise NetlistError(f"netlist {self.name!r} contains a combinational cycle")
        return order

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist(name={self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, gates={len(self._gates)})"
        )
