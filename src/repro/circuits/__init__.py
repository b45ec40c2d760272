"""Digital circuit substrate: netlists, logic simulation, synthesis, costing.

The paper's digital blocks (bespoke comparator trees of the baseline [2] and
the two-level unary decision trees of the proposed architecture) are purely
combinational circuits operating at 20 Hz.  This package provides everything
required to build, simulate, verify and cost such circuits on top of the
behavioral EGFET cell library:

* :mod:`repro.circuits.netlist` -- gate-level netlist data structure with
  validation and topological ordering,
* :mod:`repro.circuits.logic_sim` -- combinational logic simulator (scalar
  and compiled-batch evaluation over boolean vectors),
* :mod:`repro.circuits.two_level` -- sum-of-products representation with
  containment-based minimization (the "simple two-level logic" of Fig. 2b),
* :mod:`repro.circuits.synthesis` -- synthesis primitives: hardwired-constant
  comparators, AND/OR trees, sum-of-products mapping,
* :mod:`repro.circuits.area_power` -- area/power estimation of a netlist
  against a cell library (the behavioral stand-in for Design Compiler /
  PrimeTime),
* :mod:`repro.circuits.verification` -- netlist-vs-reference-model
  equivalence checking,
* :mod:`repro.circuits.verilog` / :mod:`repro.circuits.testbench` /
  :mod:`repro.circuits.cosim` -- structural Verilog export, self-checking
  testbench generation and RTL co-simulation under iverilog/Verilator,
* :mod:`repro.circuits.ppa` -- pluggable PPA backends (analytic cell-count
  model vs. replayed external-flow reports).

See ``docs/HARDWARE.md`` for the end-to-end hardware flow.
"""

from repro._lazy import lazy_exports

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.circuits.netlist": ("Gate", "Netlist"),
    "repro.circuits.logic_sim": (
        "CompiledNetlist", "evaluate_netlist", "evaluate_netlist_batch", "evaluate_outputs",
        "evaluate_outputs_batch",
    ),
    "repro.circuits.two_level": ("Literal", "SumOfProducts"),
    "repro.circuits.synthesis": (
        "synthesize_and_tree", "synthesize_or_tree", "synthesize_constant_comparator",
        "synthesize_sop",
    ),
    "repro.circuits.area_power": ("AreaPowerReport", "estimate_netlist"),
    "repro.circuits.verification": ("EquivalenceResult", "check_equivalence"),
    "repro.circuits.verilog": ("netlist_to_verilog", "sanitize_identifier", "verilog_net_names"),
    "repro.circuits.testbench": ("generate_verilog_testbench",),
    "repro.circuits.timing": ("TimingReport", "estimate_timing"),
    "repro.circuits.cosim": (
        "CosimError", "CosimReport", "SimulatorNotFoundError", "available_simulators",
        "find_simulator", "run_cosim", "testbench_vectors", "write_cosim_sources",
    ),
    "repro.circuits.ppa": (
        "AnalyticPPABackend", "PPABackend", "PPAReportError", "ReportPPABackend",
        "load_ppa_report", "resolve_ppa_backend",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
