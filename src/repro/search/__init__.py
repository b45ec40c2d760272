"""Budgeted multi-objective design-space search.

Replaces the exhaustive depth x tau grid of Section IV with a seeded,
dependency-free optimization loop: a typed parameter space
(:mod:`repro.search.space`), a Pareto-aware TPE-style sampler with
NSGA-II-style selection (:mod:`repro.search.optimizer`), and a
cache-warm-started study runner (:mod:`repro.search.study`) that fans
trials through the :class:`~repro.core.executor.Executor` and extracts
fronts with :mod:`repro.core.pareto`.  See ``docs/SEARCH.md``.
"""

from repro._lazy import lazy_exports

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.search.dashboard": ("render_dashboard", "render_surface"),
    "repro.search.optimizer": (
        "ParetoTPESampler", "crowding_distance", "hypervolume", "non_dominated_sort",
    ),
    "repro.search.space": (
        "CategoricalDimension", "FloatDimension", "IntDimension", "SearchSpace", "get_space",
        "paper_space", "space_names", "wide_space",
    ),
    "repro.search.study": ("Study", "StudyResult", "Trial", "parse_objectives"),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
