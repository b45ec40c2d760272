"""Analysis and reporting: regeneration of the paper's tables and figures.

* :mod:`repro.analysis.render` -- plain-text table rendering,
* :mod:`repro.analysis.figures` -- data series behind Figs. 3, 4 and 5,
* :mod:`repro.analysis.tables` -- rows of Tables I and II,
* :mod:`repro.analysis.experiments` -- orchestration helpers that run the
  co-design framework over the whole benchmark suite (used by the
  benchmarks and the CLI).
"""

from repro.analysis.render import render_table
from repro.analysis.figures import fig3_series, fig4_series, fig5_series
from repro.analysis.tables import (
    exploration_rows,
    robustness_surface_rows,
    robustness_surface_summary,
    table1_rows,
    table2_robust_rows,
    table2_rows,
)
from repro.analysis.experiments import (
    RobustExploration,
    RobustnessSurface,
    ShardRunReport,
    SurfaceCell,
    default_store,
    run_benchmark_suite,
    run_plan_shard,
    run_robust_exploration,
    run_robustness_surface,
    run_variation_analysis,
)
from repro.analysis.export import (
    results_to_json,
    robust_exploration_to_json,
    robustness_surface_to_json,
    rows_to_csv,
)
from repro.analysis.stats import MultiSeedSummary, run_multi_seed

__all__ = [
    "render_table",
    "fig3_series",
    "fig4_series",
    "fig5_series",
    "table1_rows",
    "table2_rows",
    "table2_robust_rows",
    "exploration_rows",
    "run_benchmark_suite",
    "run_variation_analysis",
    "run_robust_exploration",
    "run_robustness_surface",
    "robustness_surface_rows",
    "robustness_surface_summary",
    "run_plan_shard",
    "ShardRunReport",
    "RobustExploration",
    "RobustnessSurface",
    "SurfaceCell",
    "default_store",
    "rows_to_csv",
    "results_to_json",
    "robust_exploration_to_json",
    "robustness_surface_to_json",
    "run_multi_seed",
    "MultiSeedSummary",
]
