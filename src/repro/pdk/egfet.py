"""EGFET technology container.

:class:`EGFETTechnology` bundles every cost model the co-design framework
needs -- the digital standard-cell library, the analog comparator and
resistor-ladder models, the operating point, and the wiring overhead applied
to synthesized digital blocks.  A single instance is threaded through the
ADC models, the circuit synthesis, the baselines, and the co-design core, so
sensitivity studies (e.g. a more optimistic comparator) only need to swap
the technology object.

Calibration targets, from the paper (docs/HARDWARE.md describes the flow
they cost; ``tests/adc/test_flash.py`` and ``tests/adc/test_bespoke.py``
pin the ADC ones):

* conventional 4-bit flash ADC (15 comparators + ladder + priority encoder):
  ~11 mm2 and ~0.83 mW (Section III-B of the paper);
* bespoke 4-bit ADC: area from ~0.2 mm2 (1 retained comparator) to ~0.6 mm2
  (all 15 retained), power from tens of uW to ~0.44 mW depending on which
  reference levels are retained (Fig. 3);
* a per-input comparator bank plus a single shared encoder reproduces the
  ADC area/power columns of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pdk.cells import CellLibrary, egfet_cell_library
from repro.pdk.comparator import AnalogComparatorModel
from repro.pdk.harvester import PrintedEnergyHarvester
from repro.pdk.resistor_ladder import ResistorLadder
from repro.pdk.sensors import PrintedSensor


@dataclass(frozen=True)
class EGFETTechnology:
    """Behavioral printed-EGFET technology description.

    Attributes
    ----------
    name:
        Identifier of the technology corner.
    vdd:
        Supply voltage in volts (the EGFET PDK operates below 1 V; the paper
        simulates at 1 V).
    frequency_hz:
        Operating frequency of the digital logic.  Printed applications run
        at a few Hz; the paper evaluates everything at 20 Hz.
    cell_library:
        Digital standard-cell library.
    comparator:
        Analog comparator area/power model.
    ladder:
        Flash-ADC resistor ladder model (also fixes the default resolution).
    wiring_area_overhead:
        Multiplicative factor applied to synthesized digital area to account
        for printed routing, which is significant at these feature sizes.
    encoder_gate_equivalents_per_tap:
        Size of the flash-ADC priority encoder in gate equivalents per
        thermometer tap.  For a 4-bit ADC (15 taps) the default of 5.2 GE/tap
        yields ~10.1 mm2 / ~0.39 mW, which closes the gap between the
        comparator bank and the published 11 mm2 / 0.83 mW conventional ADC.
    harvester:
        Printed energy-harvester budget used in the self-power analysis.
    sensor:
        Printed sensor model (per used input feature).
    """

    name: str = "egfet_behavioral_v1"
    vdd: float = 1.0
    frequency_hz: float = 20.0
    cell_library: CellLibrary = field(default_factory=egfet_cell_library)
    comparator: AnalogComparatorModel = field(default_factory=AnalogComparatorModel)
    ladder: ResistorLadder = field(default_factory=ResistorLadder)
    wiring_area_overhead: float = 1.10
    encoder_gate_equivalents_per_tap: float = 5.2
    harvester: PrintedEnergyHarvester = field(default_factory=PrintedEnergyHarvester)
    sensor: PrintedSensor = field(default_factory=PrintedSensor)

    def __post_init__(self) -> None:
        if self.vdd <= 0:
            raise ValueError("supply voltage must be positive")
        if self.frequency_hz <= 0:
            raise ValueError("operating frequency must be positive")
        if self.wiring_area_overhead < 1.0:
            raise ValueError("wiring overhead factor must be >= 1.0")
        if self.encoder_gate_equivalents_per_tap <= 0:
            raise ValueError("encoder size per tap must be positive")

    @property
    def resolution_bits(self) -> int:
        """Default ADC resolution of the technology (from the ladder model)."""
        return self.ladder.resolution_bits

    def ladder_for(self, resolution_bits: int) -> ResistorLadder:
        """Return a resistor ladder of the requested resolution.

        The per-segment area and string resistance of the technology's
        default ladder are preserved so cost scaling with resolution is
        consistent.
        """
        if resolution_bits == self.ladder.resolution_bits:
            return self.ladder
        return ResistorLadder(
            resolution_bits=resolution_bits,
            segment_area_mm2=self.ladder.segment_area_mm2,
            vdd=self.ladder.vdd,
            string_resistance_ohm=self.ladder.string_resistance_ohm,
        )

    def encoder_gate_equivalents(self, resolution_bits: int) -> float:
        """Size of an N-bit flash-ADC priority encoder in gate equivalents."""
        if resolution_bits < 1:
            raise ValueError("encoder resolution must be >= 1 bit")
        n_taps = 2 ** resolution_bits - 1
        return self.encoder_gate_equivalents_per_tap * n_taps


def default_technology() -> EGFETTechnology:
    """Return the default calibrated EGFET behavioral technology."""
    return EGFETTechnology()
