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

from repro.core import (
    ADCAwareTrainer,
    ClassifierDesign,
    CoDesignResult,
    DesignPoint,
    Executor,
    HardwareReport,
    ParallelExecutor,
    ResultStore,
    SelfPowerAnalysis,
    SerialExecutor,
    UnaryDecisionTree,
    analyze_self_power,
    build_bespoke_adcs,
    build_bespoke_frontend,
    get_executor,
    reference_designs,
    select_best_design,
    select_designs,
)
from repro.datasets import Dataset, dataset_names, load_dataset
from repro.pdk import EGFETTechnology, default_technology

__version__ = "1.8.0"

__all__ = [
    "ADCAwareTrainer",
    "ClassifierDesign",
    "CoDesignResult",
    "DesignPoint",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "get_executor",
    "ResultStore",
    "HardwareReport",
    "SelfPowerAnalysis",
    "UnaryDecisionTree",
    "analyze_self_power",
    "build_bespoke_adcs",
    "build_bespoke_frontend",
    "select_best_design",
    "reference_designs",
    "select_designs",
    "Dataset",
    "dataset_names",
    "load_dataset",
    "EGFETTechnology",
    "default_technology",
    "__version__",
]
