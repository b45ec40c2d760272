"""Analysis and reporting: regeneration of the paper's tables and figures.

* :mod:`repro.analysis.render` -- plain-text table rendering,
* :mod:`repro.analysis.figures` -- data series behind Figs. 3, 4 and 5,
* :mod:`repro.analysis.tables` -- rows of Tables I and II,
* :mod:`repro.analysis.experiments` -- orchestration helpers that run the
  co-design framework over the whole benchmark suite (used by the
  benchmarks and the CLI).
"""

from repro._lazy import lazy_exports

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.analysis.render": ("render_table",),
    "repro.analysis.figures": ("fig3_series", "fig4_series", "fig5_series"),
    "repro.analysis.tables": (
        "exploration_rows", "robustness_surface_rows", "robustness_surface_summary", "table1_rows",
        "table2_robust_rows", "table2_rows",
    ),
    "repro.analysis.experiments": (
        "RobustExploration", "RobustnessSurface", "ShardRunReport", "SurfaceCell",
        "run_benchmark_suite", "run_plan_shard", "run_robust_exploration",
        "run_robustness_surface", "run_variation_analysis",
    ),
    "repro.analysis.export": (
        "results_to_json", "robust_exploration_to_json", "robustness_surface_to_json",
        "rows_to_csv",
    ),
    "repro.analysis.stats": ("MultiSeedSummary", "run_multi_seed"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
