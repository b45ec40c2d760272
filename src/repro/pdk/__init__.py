"""Behavioral Process Design Kit (PDK) for printed Electrolyte-Gated FET circuits.

The paper designs its circuits in the inorganic EGFET technology [Bleier et
al., ISCA 2020] and extracts area/power through Cadence Virtuoso SPICE
simulations (analog front end) and Synopsys Design Compiler / PrimeTime
(digital tree logic).  Neither tool nor the proprietary PDK is available in
this environment, so this package provides a *behavioral* cost model with the
same interface the co-design framework needs:

* a standard-cell library with per-cell area and power (:mod:`repro.pdk.cells`),
* an analog comparator whose power depends on its reference level
  (:mod:`repro.pdk.comparator`),
* a resistor ladder (:mod:`repro.pdk.resistor_ladder`),
* printed energy-harvester and sensor budgets (:mod:`repro.pdk.harvester`,
  :mod:`repro.pdk.sensors`),
* an :class:`~repro.pdk.egfet.EGFETTechnology` container bundling everything,
  calibrated against the numbers published in the paper (conventional 4-bit
  flash ADC = 11 mm\N{SUPERSCRIPT TWO} / 0.83 mW, bespoke ADC area
  0.2-0.6 mm\N{SUPERSCRIPT TWO}, comparator power linear in the reference
  level index -- Fig. 3 and Section III-B).

All constants carry the paper reference they were calibrated against so that
users can swap in their own measured values.
"""

from repro._lazy import lazy_exports

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.pdk.cells": ("Cell", "CellLibrary", "egfet_cell_library"),
    "repro.pdk.comparator": ("AnalogComparatorModel",),
    "repro.pdk.resistor_ladder": ("ResistorLadder",),
    "repro.pdk.harvester": ("PrintedEnergyHarvester",),
    "repro.pdk.sensors": ("PrintedSensor", "SensorSuite"),
    "repro.pdk.egfet": ("EGFETTechnology", "default_technology"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
