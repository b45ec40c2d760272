"""Analog-to-digital converter substrate.

The paper's key observation is that the flash ADC already produces a
thermometer (parallel unary) code internally, so a decision tree that only
needs specific unary digits can drop both the priority encoder and all unused
comparators.  This package models:

* thermometer/unary coding utilities (:mod:`repro.adc.thermometer`),
* the conventional flash ADC of Fig. 1a (:mod:`repro.adc.flash`),
* the bespoke ADC of Fig. 1b retaining an arbitrary subset of reference
  levels (:mod:`repro.adc.bespoke`),
* the priority encoder cost/behaviour (:mod:`repro.adc.encoder`),
* multi-input analog front ends aggregating per-feature ADCs
  (:mod:`repro.adc.frontend`).
"""

from repro._lazy import lazy_exports

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.adc.thermometer": (
        "from_thermometer", "is_valid_thermometer", "level_to_binary", "quantize_to_level",
        "to_thermometer", "unary_digit",
    ),
    "repro.adc.encoder": ("PriorityEncoder",),
    "repro.adc.flash": ("ADCConversion", "FlashADC"),
    "repro.adc.bespoke": ("BespokeADC",),
    "repro.adc.frontend": ("BespokeFrontEnd", "ConventionalFrontEnd", "FrontEndReport"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
