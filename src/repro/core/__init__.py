"""Co-design core: the paper's contribution.

This package implements the three pieces of the proposed framework and the
orchestration that ties them to the substrates:

* :mod:`repro.core.unary_tree` -- the fully parallel unary decision-tree
  architecture of Section III-A, where every comparison collapses into one
  unary digit and each class label becomes two-level AND-OR logic (Fig. 2),
* :mod:`repro.core.bespoke_adc` -- generation of the bespoke ADC front end of
  Section III-B from the trained tree parameters,
* :mod:`repro.core.adc_aware_training` -- the ADC-aware training of
  Section III-C (Algorithm 1),
* :mod:`repro.core.design` -- :class:`DesignSpec`, the one identity and
  train/score/cost recipe of a design point,
* :mod:`repro.core.exploration` -- the depth x tau design-space grid and
  accuracy-loss-constrained selection used in Section IV,
* :mod:`repro.core.codesign` -- the end-to-end :class:`CoDesignFramework`
  producing baseline, ADC-unaware-unary and fully co-designed classifiers,
* :mod:`repro.core.power_budget` -- the self-power feasibility analysis
  against printed energy harvesters,
* :mod:`repro.core.metrics` -- hardware/accuracy report records and
  reduction arithmetic shared by the benchmarks,
* :mod:`repro.core.executor` -- serial/process-parallel execution backends
  the benchmark suite, shards and search studies submit their jobs through,
* :mod:`repro.core.store` -- content-addressed on-disk result store shared
  across processes and CI jobs, with shard-store merge/transport,
* :mod:`repro.core.sharding` -- deterministic work-unit planner splitting a
  suite run across machines/CI jobs by stable hashing.
"""

from repro.core.metrics import (
    ClassifierDesign,
    HardwareReport,
    ReductionReport,
    reduction_factor,
    reduction_percent,
)
from repro.core.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    get_executor,
)
from repro.core.store import MergeReport, ResultStore, StoreStats, make_key
from repro.core.sharding import (
    MissingResultsError,
    ShardSpec,
    SuitePlan,
    WorkUnit,
    normalize_sigmas,
    plan_suite_units,
    point_work_unit,
    suite_work_unit,
    variation_work_unit,
)
from repro.core.unary_tree import UnaryDecisionTree
from repro.core.bespoke_adc import build_bespoke_adcs, build_bespoke_frontend
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.design import DesignPoint, DesignSpec
from repro.core.exploration import select_best_design
from repro.core.pareto import accuracy_area_front, accuracy_power_front, pareto_front
from repro.core.power_budget import SelfPowerAnalysis, analyze_self_power
from repro.core.variation import (
    ComparatorOffsetModel,
    VariationAnalysis,
    offset_tolerance_sweep,
    simulate_offset_variation,
)
from repro.core.datasheet import generate_datasheet
from repro.core.codesign import CoDesignFramework, CoDesignResult

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "get_executor",
    "ResultStore",
    "StoreStats",
    "MergeReport",
    "make_key",
    "ShardSpec",
    "WorkUnit",
    "SuitePlan",
    "MissingResultsError",
    "normalize_sigmas",
    "plan_suite_units",
    "point_work_unit",
    "suite_work_unit",
    "variation_work_unit",
    "HardwareReport",
    "ClassifierDesign",
    "ReductionReport",
    "reduction_factor",
    "reduction_percent",
    "UnaryDecisionTree",
    "build_bespoke_adcs",
    "build_bespoke_frontend",
    "ADCAwareTrainer",
    "DesignPoint",
    "DesignSpec",
    "select_best_design",
    "pareto_front",
    "accuracy_power_front",
    "accuracy_area_front",
    "SelfPowerAnalysis",
    "analyze_self_power",
    "CoDesignFramework",
    "CoDesignResult",
    "ComparatorOffsetModel",
    "VariationAnalysis",
    "simulate_offset_variation",
    "offset_tolerance_sweep",
    "generate_datasheet",
]
