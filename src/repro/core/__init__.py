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
* :mod:`repro.core.codesign` -- :func:`reference_designs` (baseline [2],
  its ADC-unaware unary re-implementation, approximate [7]) and
  :func:`select_designs`, which complete a benchmark's
  :class:`CoDesignResult`,
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

from repro._lazy import lazy_exports

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.core.metrics": (
        "ClassifierDesign", "HardwareReport", "ReductionReport", "reduction_factor",
        "reduction_percent",
    ),
    "repro.core.executor": ("Executor", "ParallelExecutor", "SerialExecutor", "get_executor"),
    "repro.core.store": ("MergeReport", "ResultStore", "StoreStats", "make_key"),
    "repro.core.sharding": (
        "MissingResultsError", "ShardSpec", "SuitePlan", "WorkUnit", "normalize_sigmas",
        "plan_suite_units", "point_work_unit", "suite_work_unit", "variation_work_unit",
    ),
    "repro.core.unary_tree": ("UnaryDecisionTree",),
    "repro.core.bespoke_adc": ("build_bespoke_adcs", "build_bespoke_frontend"),
    "repro.core.adc_aware_training": ("ADCAwareTrainer",),
    "repro.core.design": ("DesignPoint", "DesignSpec"),
    "repro.core.exploration": ("select_best_design",),
    "repro.core.pareto": ("accuracy_area_front", "accuracy_power_front", "pareto_front"),
    "repro.core.power_budget": ("SelfPowerAnalysis", "analyze_self_power"),
    "repro.core.variation": (
        "ComparatorOffsetModel", "VariationAnalysis", "simulate_offset_variation",
    ),
    "repro.core.datasheet": ("generate_datasheet",),
    "repro.core.codesign": ("CoDesignResult", "reference_designs", "select_designs"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
