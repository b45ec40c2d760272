"""repro -- bespoke ADC / decision-tree co-design for printed on-sensor ML.

Reproduction of "On-Sensor Printed Machine Learning Classification via
Bespoke ADC and Decision Tree Co-Design" (DATE 2024).

Public API highlights
---------------------
* :func:`repro.analysis.experiments.run_benchmark_suite` -- end-to-end flow:
  baseline [2], parallel unary architecture with bespoke ADCs, ADC-aware
  training and the accuracy-constrained design-space exploration, per
  benchmark (``store=None`` runs it without a result store).
* :func:`repro.core.reference_designs` and :func:`repro.core.select_designs`
  -- the flow's reference designs and its design selection, for a
  :class:`repro.core.DesignSpec` of your own (e.g. another technology).
* :class:`repro.core.ADCAwareTrainer` -- Algorithm 1 of the paper.
* :class:`repro.core.UnaryDecisionTree` -- the parallel unary decision-tree
  architecture (Section III-A).
* :func:`repro.core.build_bespoke_frontend` -- bespoke ADC generation
  (Section III-B).
* :mod:`repro.datasets` -- the eight benchmark datasets (synthetic stand-ins).
* :mod:`repro.pdk`, :mod:`repro.adc`, :mod:`repro.circuits`,
  :mod:`repro.mltrees` -- the substrates everything is built on.
* :mod:`repro.analysis` -- regeneration of every table/figure of the paper.
"""

from repro._lazy import lazy_exports

__version__ = "1.8.0"

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.core.adc_aware_training": ("ADCAwareTrainer",),
    "repro.core.bespoke_adc": ("build_bespoke_adcs", "build_bespoke_frontend"),
    "repro.core.codesign": ("CoDesignResult", "reference_designs", "select_designs"),
    "repro.core.design": ("DesignPoint",),
    "repro.core.executor": ("Executor", "ParallelExecutor", "SerialExecutor", "get_executor"),
    "repro.core.exploration": ("select_best_design",),
    "repro.core.metrics": ("ClassifierDesign", "HardwareReport"),
    "repro.core.power_budget": ("SelfPowerAnalysis", "analyze_self_power"),
    "repro.core.store": ("ResultStore",),
    "repro.core.unary_tree": ("UnaryDecisionTree",),
    "repro.datasets.base": ("Dataset",),
    "repro.datasets.registry": ("dataset_names", "load_dataset"),
    "repro.pdk.egfet": ("EGFETTechnology", "default_technology"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
