"""RTL co-simulation of exported netlists against the Python golden model.

The missing link between the co-design numbers and simulatable hardware:
this module takes any :class:`~repro.circuits.netlist.Netlist`, emits the
structural Verilog module (:func:`~repro.circuits.verilog.netlist_to_verilog`)
plus a self-checking testbench whose expected outputs are baked in from the
compiled Python logic simulator
(:func:`~repro.circuits.testbench.generate_verilog_testbench`), and runs the
pair under an installed open-source simulator:

* **Icarus Verilog** (``iverilog``/``vvp``) -- preferred when both exist,
  because it is the lighter dependency;
* **Verilator** (``--binary --timing``) -- compiled C++ simulation.

Simulators are discovered with :func:`shutil.which`; on machines with
neither, :func:`run_cosim` raises :class:`SimulatorNotFoundError` and the
pytest suite *skips* (never fails) its execution tests, so CI stays green on
bare containers while the nightly cosim job (which installs iverilog)
exercises the full flow.

Vector policy: netlists with at most :data:`MAX_EXHAUSTIVE_INPUTS` primary
inputs are driven with every input combination (a complete equivalence
check); larger ones sample a seeded random subset, so runs stay reproducible.
"""

from __future__ import annotations

import itertools
import re
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.circuits.netlist import Netlist
from repro.circuits.testbench import generate_verilog_testbench
from repro.circuits.verilog import netlist_to_verilog, sanitize_identifier
from repro.errors import InputError

#: Schema version of :meth:`CosimReport.to_json_dict`.
COSIM_SCHEMA_VERSION = 1

#: Exhaustive-drive threshold: up to 2^12 = 4096 vectors are enumerated
#: completely; above that the testbench samples seeded random vectors.
MAX_EXHAUSTIVE_INPUTS = 12

#: Number of random vectors applied to netlists too wide for exhaustion.
DEFAULT_RANDOM_VECTORS = 256

#: Supported simulators, in ``auto`` preference order.
SIMULATORS = ("iverilog", "verilator")

_PASS_RE = re.compile(r"TESTBENCH PASSED: (\d+) vectors")
_FAIL_RE = re.compile(r"TESTBENCH FAILED: (\d+) errors")


class SimulatorNotFoundError(InputError, RuntimeError):
    """No usable Verilog simulator is installed (or the requested one isn't)."""


class CosimError(InputError, RuntimeError):
    """The simulator toolchain failed (compile error, unparsable output, ...)."""


def available_simulators() -> tuple[str, ...]:
    """Names of the supported simulators present on ``PATH``."""
    return tuple(name for name in SIMULATORS if shutil.which(name) is not None)


def find_simulator(preference: str = "auto") -> str | None:
    """Resolve a simulator preference to an installed simulator name.

    ``"auto"`` picks the first available simulator in :data:`SIMULATORS`
    order; a concrete name returns that name only if it is installed.
    Returns ``None`` when nothing usable is found.
    """
    if preference == "auto":
        present = available_simulators()
        return present[0] if present else None
    if preference not in SIMULATORS:
        raise ValueError(
            f"unknown simulator {preference!r}; expected 'auto' or one of "
            f"{SIMULATORS}"
        )
    return preference if shutil.which(preference) is not None else None


def testbench_vectors(
    netlist: Netlist,
    seed: int = 0,
    max_exhaustive_inputs: int = MAX_EXHAUSTIVE_INPUTS,
    n_random: int = DEFAULT_RANDOM_VECTORS,
) -> tuple[list[dict[str, bool]], bool]:
    """Input vectors for ``netlist``'s testbench.

    Returns ``(vectors, exhaustive)``: every input combination (in canonical
    binary counting order) when the netlist has at most
    ``max_exhaustive_inputs`` primary inputs, else ``n_random`` seeded random
    vectors.  Either way the golden model (the Python logic simulator)
    defines the expected output for every vector.
    """
    names = list(netlist.inputs)
    if len(names) <= max_exhaustive_inputs:
        vectors = [
            dict(zip(names, bits))
            for bits in itertools.product((False, True), repeat=len(names))
        ]
        return vectors, True
    if n_random < 1:
        raise ValueError("n_random must be >= 1")
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 2, size=(n_random, len(names))) == 1
    return [dict(zip(names, map(bool, row))) for row in matrix], False


@dataclass(frozen=True)
class CosimReport:
    """Outcome of one netlist's RTL co-simulation run.

    Attributes
    ----------
    module:
        Verilog module name of the DUT.
    simulator:
        Simulator that executed the testbench (``iverilog``/``verilator``).
    n_vectors:
        Number of input vectors applied.
    n_mismatches:
        Vectors whose DUT outputs disagreed with the golden model.
    exhaustive:
        True when every input combination was driven (a full equivalence
        check of RTL vs. golden model).
    returncode:
        Simulation process exit status (nonzero on mismatch via ``$fatal``).
    passed:
        True iff the testbench reported zero mismatches and the simulator
        exited cleanly.
    log:
        Raw simulation stdout/stderr (kept out of ``repr`` for sanity).
    """

    module: str
    simulator: str
    n_vectors: int
    n_mismatches: int
    exhaustive: bool
    returncode: int
    passed: bool
    log: str = field(default="", repr=False)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": COSIM_SCHEMA_VERSION,
            "kind": "cosim_report",
            "module": self.module,
            "simulator": self.simulator,
            "n_vectors": self.n_vectors,
            "n_mismatches": self.n_mismatches,
            "exhaustive": self.exhaustive,
            "returncode": self.returncode,
            "passed": self.passed,
        }


def write_cosim_sources(
    netlist: Netlist,
    directory: str | Path,
    seed: int = 0,
    max_exhaustive_inputs: int = MAX_EXHAUSTIVE_INPUTS,
    n_random: int = DEFAULT_RANDOM_VECTORS,
) -> tuple[Path, Path, int, bool]:
    """Write ``dut.v`` + ``tb.v`` for ``netlist`` into ``directory``.

    Returns ``(dut_path, tb_path, n_vectors, exhaustive)``.  Usable on its
    own (``repro.cli cosim --emit``) to hand the pair to any simulator, and
    internally by :func:`run_cosim`.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    vectors, exhaustive = testbench_vectors(
        netlist,
        seed=seed,
        max_exhaustive_inputs=max_exhaustive_inputs,
        n_random=n_random,
    )
    dut_path = directory / "dut.v"
    tb_path = directory / "tb.v"
    dut_path.write_text(netlist_to_verilog(netlist), encoding="utf-8")
    tb_path.write_text(
        generate_verilog_testbench(netlist, vectors, fatal_on_mismatch=True),
        encoding="utf-8",
    )
    return dut_path, tb_path, len(vectors), exhaustive


def _run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=str(cwd), capture_output=True, text=True, check=False
    )


def _simulate(
    simulator: str, dut_path: Path, tb_path: Path, tb_module: str, cwd: Path
) -> subprocess.CompletedProcess:
    """Compile and execute the testbench, returning the simulation process."""
    if simulator == "iverilog":
        compile_proc = _run(
            ["iverilog", "-g2012", "-o", "cosim.vvp", str(tb_path), str(dut_path)],
            cwd,
        )
        if compile_proc.returncode != 0:
            raise CosimError(
                f"iverilog failed (exit {compile_proc.returncode}):\n"
                f"{compile_proc.stdout}{compile_proc.stderr}"
            )
        return _run(["vvp", "cosim.vvp"], cwd)
    if simulator == "verilator":
        compile_proc = _run(
            [
                "verilator",
                "--binary",
                "--timing",
                "-Wno-fatal",
                "--top-module",
                tb_module,
                "-o",
                "cosim_bin",
                str(tb_path),
                str(dut_path),
            ],
            cwd,
        )
        if compile_proc.returncode != 0:
            raise CosimError(
                f"verilator failed (exit {compile_proc.returncode}):\n"
                f"{compile_proc.stdout}{compile_proc.stderr}"
            )
        return _run([str(cwd / "obj_dir" / "cosim_bin")], cwd)
    raise ValueError(f"unknown simulator {simulator!r}")


def _parse_verdict(log: str) -> tuple[bool, int]:
    """Extract ``(testbench_passed, n_mismatches)`` from a simulation log."""
    failed = _FAIL_RE.search(log)
    if failed is not None:
        return False, int(failed.group(1))
    passed = _PASS_RE.search(log)
    if passed is not None:
        return True, 0
    raise CosimError(f"simulation produced no TESTBENCH verdict:\n{log}")


def run_cosim(
    netlist: Netlist,
    simulator: str = "auto",
    seed: int = 0,
    max_exhaustive_inputs: int = MAX_EXHAUSTIVE_INPUTS,
    n_random: int = DEFAULT_RANDOM_VECTORS,
    workdir: str | Path | None = None,
) -> CosimReport:
    """Co-simulate ``netlist``'s exported Verilog against the golden model.

    Parameters
    ----------
    netlist:
        The circuit to check (validated during export).
    simulator:
        ``"auto"`` (first installed of :data:`SIMULATORS`), ``"iverilog"``
        or ``"verilator"``.  Raises :class:`SimulatorNotFoundError` when the
        choice resolves to nothing installed.
    seed / max_exhaustive_inputs / n_random:
        Vector policy, see :func:`testbench_vectors`.
    workdir:
        Directory the Verilog sources and simulator build products are
        written to (kept afterwards).  Default: a temporary directory,
        removed after the run.

    Returns
    -------
    CosimReport
        Structured pass/fail outcome; never raises on a *mismatch* (that is
        the report's job), only on toolchain failures.
    """
    name = find_simulator(simulator)
    if name is None:
        installed = available_simulators()
        raise SimulatorNotFoundError(
            f"no usable Verilog simulator for preference {simulator!r} "
            f"(installed: {installed or 'none'}; supported: {SIMULATORS})"
        )
    module = sanitize_identifier(netlist.name)
    if workdir is not None:
        return _run_cosim_in(
            netlist, name, module, Path(workdir), seed,
            max_exhaustive_inputs, n_random,
        )
    with tempfile.TemporaryDirectory(prefix="repro-cosim-") as tmp:
        return _run_cosim_in(
            netlist, name, module, Path(tmp), seed,
            max_exhaustive_inputs, n_random,
        )


def _run_cosim_in(
    netlist: Netlist,
    simulator: str,
    module: str,
    directory: Path,
    seed: int,
    max_exhaustive_inputs: int,
    n_random: int,
) -> CosimReport:
    dut_path, tb_path, n_vectors, exhaustive = write_cosim_sources(
        netlist,
        directory,
        seed=seed,
        max_exhaustive_inputs=max_exhaustive_inputs,
        n_random=n_random,
    )
    proc = _simulate(simulator, dut_path, tb_path, f"{module}_tb", directory)
    log = proc.stdout + proc.stderr
    verdict_passed, n_mismatches = _parse_verdict(log)
    return CosimReport(
        module=module,
        simulator=simulator,
        n_vectors=n_vectors,
        n_mismatches=n_mismatches,
        exhaustive=exhaustive,
        returncode=proc.returncode,
        passed=verdict_passed and n_mismatches == 0 and proc.returncode == 0,
        log=log,
    )
