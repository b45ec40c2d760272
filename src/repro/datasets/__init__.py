"""Dataset substrate: synthetic stand-ins for the paper's 8 UCI benchmarks.

The paper evaluates on eight UCI datasets (WhiteWine, Cardio, Arrhythmia,
Balance-Scale, Vertebral-3C, Seeds, Vertebral-2C, Pendigits) with inputs
normalized to ``[0, 1]`` and a random 70/30 split.  The UCI files are not
shipped, so each benchmark is replaced by a deterministic synthetic
generator matched to the original's feature count, class count, sample count
and approximate baseline decision-tree accuracy (one row of
:mod:`repro.datasets.synthetic`'s recipe table each; docs/README.md maps the
package).  Balance-Scale is special: the original dataset is a complete
factorial of a known deterministic rule, so it is regenerated *exactly*.

Real UCI CSV files load through :func:`repro.datasets.registry.load_csv`
into a :class:`~repro.datasets.base.Dataset` for the trainers and hardware
models; the co-design flow (:func:`repro.analysis.experiments.run_benchmark_suite`
and every design point's :class:`~repro.core.design.DesignSpec`) runs on the
registered benchmarks only, since a registered name is what keys its results.
"""

from repro._lazy import lazy_exports

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.datasets.base": ("Dataset",),
    "repro.datasets.normalize": ("MinMaxNormalizer", "normalize_unit_range"),
    "repro.datasets.registry": (
        "DATASET_ABBREVIATIONS", "dataset_names", "load_csv", "load_dataset", "paper_reference",
    ),
    "repro.datasets.synthetic": (
        "make_balance_scale", "make_classification_blobs", "make_ordinal_dataset",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
