"""Pluggable PPA (power / performance / area) estimation backends.

Every hardware cost in the repository -- ``DesignPoint`` area/power, the
suite sweep, search objectives, datasheets -- ultimately comes from
costing a gate-level :class:`~repro.circuits.netlist.Netlist`.  This module
puts that costing behind a small interface so two very different sources of
numbers are interchangeable:

* :class:`AnalyticPPABackend` (the default everywhere) wraps the behavioral
  estimators :func:`~repro.circuits.area_power.estimate_netlist` and
  :func:`~repro.circuits.timing.estimate_timing` bit-identically.  Results,
  cache keys and ``DesignPoint`` identities are exactly what they were
  before this interface existed.
* :class:`ReportPPABackend` replays area/power/timing numbers produced by an
  external flow (synthesis + physical design on the Verilog exported by
  :func:`~repro.circuits.verilog.netlist_to_verilog`) from a JSON report,
  keyed by module name.

Because report-backed numbers are not derivable from the experiment
configuration alone, suite/search runners refuse to cache results produced
with a non-analytic backend (see
:func:`~repro.analysis.experiments.run_benchmark_suite`).

See ``docs/HARDWARE.md`` for the report schema and the full flow.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.circuits.area_power import AreaPowerReport, estimate_netlist
from repro.circuits.netlist import Netlist
from repro.circuits.timing import TimingReport, estimate_timing
from repro.circuits.verilog import sanitize_identifier
from repro.errors import InputError
from repro.pdk.egfet import EGFETTechnology

#: Schema version of the external PPA report JSON format.
PPA_REPORT_SCHEMA_VERSION = 1

#: Wildcard module key: matches any netlist the report has no exact entry for.
PPA_REPORT_WILDCARD = "*"


class PPAReportError(InputError):
    """A PPA report is malformed or is missing a requested module."""


@runtime_checkable
class PPABackend(Protocol):
    """Interface every PPA estimation backend implements.

    ``name`` identifies the backend in logs and JSON records;
    ``is_analytic`` tells cache-aware runners whether results derived with
    this backend are pure functions of the experiment configuration (and may
    therefore be cached under the configuration's key).
    """

    name: str
    is_analytic: bool

    def area_power(
        self, netlist: Netlist, technology: EGFETTechnology
    ) -> AreaPowerReport:
        """Area/power of ``netlist`` in ``technology``."""
        ...

    def timing(self, netlist: Netlist, technology: EGFETTechnology) -> TimingReport:
        """Critical-path timing of ``netlist`` in ``technology``."""
        ...


class AnalyticPPABackend:
    """The behavioral cell-count model -- the default backend everywhere.

    Delegates to :func:`estimate_netlist` / :func:`estimate_timing`
    unchanged, so designs costed through this backend are bit-identical to
    designs costed before the backend interface existed.
    """

    name = "analytic"
    is_analytic = True

    def area_power(
        self, netlist: Netlist, technology: EGFETTechnology
    ) -> AreaPowerReport:
        return estimate_netlist(netlist, technology)

    def timing(self, netlist: Netlist, technology: EGFETTechnology) -> TimingReport:
        return estimate_timing(netlist, technology)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "AnalyticPPABackend()"

    def __eq__(self, other) -> bool:
        return type(other) is AnalyticPPABackend

    def __hash__(self) -> int:
        return hash(AnalyticPPABackend)


def load_ppa_report(path: str | Path) -> dict:
    """Load and validate an external PPA report JSON file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise PPAReportError(f"cannot read PPA report {path}: {error}") from error
    _validate_report(payload, source=str(path))
    return payload


def _validate_report(payload, source: str) -> None:
    if not isinstance(payload, Mapping):
        raise PPAReportError(f"PPA report {source} must be a JSON object")
    if payload.get("kind") != "ppa_report":
        raise PPAReportError(
            f"PPA report {source}: expected kind 'ppa_report', "
            f"got {payload.get('kind')!r}"
        )
    version = payload.get("schema_version")
    if version != PPA_REPORT_SCHEMA_VERSION:
        raise PPAReportError(
            f"PPA report {source}: unsupported schema_version {version!r} "
            f"(expected {PPA_REPORT_SCHEMA_VERSION})"
        )
    modules = payload.get("modules")
    if not isinstance(modules, Mapping) or not modules:
        raise PPAReportError(
            f"PPA report {source}: 'modules' must be a non-empty object"
        )
    for module, entry in modules.items():
        if not isinstance(entry, Mapping):
            raise PPAReportError(
                f"PPA report {source}: module {module!r} must be an object"
            )
        for field in ("area_mm2", "power_uw"):
            if not isinstance(entry.get(field), (int, float)):
                raise PPAReportError(
                    f"PPA report {source}: module {module!r} is missing "
                    f"numeric field {field!r}"
                )


class ReportPPABackend:
    """Replay PPA numbers measured by an external flow from a JSON report.

    Parameters
    ----------
    report:
        Either a path to a report JSON file or an already-parsed mapping.
        The expected shape (``docs/HARDWARE.md`` has a worked example)::

            {
              "schema_version": 1,
              "kind": "ppa_report",
              "source": "openroad nangate45 run 2024-03-01",
              "modules": {
                "unary_tree": {
                  "area_mm2": 41.2,
                  "power_uw": 380.0,
                  "critical_path_delay_ms": 9.6,
                  "logic_depth": 4
                }
              }
            }

        ``critical_path_delay_ms`` / ``logic_depth`` are optional per module
        (``timing`` falls back to the analytic estimator for modules that
        omit them).  The module key ``"*"`` is a wildcard applied to any
        netlist without an exact entry -- convenient for sweeps where every
        grid point synthesizes the same RTL module name.
    missing:
        Policy when a costed netlist has no report entry (and no wildcard
        exists): ``"error"`` (default) raises :class:`PPAReportError`;
        ``"analytic"`` silently falls back to the behavioral model.

    Netlists are looked up under their raw name first, then under the
    sanitized Verilog module name (the name the external flow actually saw),
    then under the wildcard.
    """

    name = "report"
    is_analytic = False

    def __init__(
        self,
        report: str | Path | Mapping,
        missing: str = "error",
    ):
        if missing not in {"error", "analytic"}:
            raise ValueError("missing must be 'error' or 'analytic'")
        if isinstance(report, (str, Path)):
            self.source = str(report)
            payload = load_ppa_report(report)
        else:
            payload = dict(report)
            self.source = str(payload.get("source", "<in-memory report>"))
            _validate_report(payload, source=self.source)
        self.missing = missing
        self.modules: dict[str, dict] = {
            str(module): dict(entry)
            for module, entry in payload["modules"].items()
        }
        self._analytic = AnalyticPPABackend()

    def _lookup(self, netlist: Netlist) -> dict | None:
        for key in (netlist.name, sanitize_identifier(netlist.name)):
            entry = self.modules.get(key)
            if entry is not None:
                return entry
        return self.modules.get(PPA_REPORT_WILDCARD)

    def _entry_or_fallback(self, netlist: Netlist) -> dict | None:
        entry = self._lookup(netlist)
        if entry is None and self.missing == "error":
            raise PPAReportError(
                f"PPA report {self.source} has no entry for module "
                f"{netlist.name!r} (and no {PPA_REPORT_WILDCARD!r} wildcard); "
                "add one or construct the backend with missing='analytic'"
            )
        return entry

    def area_power(
        self, netlist: Netlist, technology: EGFETTechnology
    ) -> AreaPowerReport:
        entry = self._entry_or_fallback(netlist)
        if entry is None:
            return self._analytic.area_power(netlist, technology)
        # Area and power come from the report verbatim; the gate census stays
        # structural -- the netlist is still the circuit that was exported.
        counts = netlist.cell_histogram()
        n_gates = sum(
            count
            for cell, count in counts.items()
            if cell not in {"CONST0", "CONST1"}
        )
        return AreaPowerReport(
            name=netlist.name,
            area_mm2=float(entry["area_mm2"]),
            power_uw=float(entry["power_uw"]),
            n_gates=n_gates,
            cell_counts=dict(counts),
        )

    def timing(self, netlist: Netlist, technology: EGFETTechnology) -> TimingReport:
        entry = self._entry_or_fallback(netlist)
        if entry is None or "critical_path_delay_ms" not in entry:
            return self._analytic.timing(netlist, technology)
        return TimingReport(
            name=netlist.name,
            critical_path_delay_ms=float(entry["critical_path_delay_ms"]),
            # The external flow does not expose its gate chain; only the
            # depth (when reported) survives into the summary.
            critical_path=(),
            logic_depth=int(entry.get("logic_depth", 0)),
            sampling_period_ms=1000.0 / technology.frequency_hz,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReportPPABackend(source={self.source!r}, "
            f"modules={sorted(self.modules)}, missing={self.missing!r})"
        )


def resolve_ppa_backend(spec: object = None) -> PPABackend:
    """Normalize a backend specification into a :class:`PPABackend`.

    Accepts ``None`` / ``"analytic"`` (the default backend), a path to a
    report JSON file (or a parsed report mapping), or an already-constructed
    backend instance, which is returned as-is.  This is the single entry
    point the framework, suite runners, search studies and CLI use, so a plain
    ``--ppa-backend report.json`` string works at every layer.
    """
    if spec is None or spec == "analytic":
        return AnalyticPPABackend()
    if hasattr(spec, "area_power") and hasattr(spec, "timing"):
        return spec
    if isinstance(spec, (str, Path, Mapping)):
        return ReportPPABackend(spec)
    raise TypeError(
        f"cannot resolve a PPA backend from {type(spec).__name__!r}; expected "
        "None, 'analytic', a report path/mapping, or a PPABackend instance"
    )
