"""Dataset registry: the eight paper benchmarks plus CSV loading.

The registry maps canonical dataset names (and the two-letter abbreviations
used in the paper's figures: WW, CA, AR, BS, V3, SE, V2, PD) to the values
the paper's Table I reports for them; perfbench's ``paper_error_pct`` (see
perfbench/README.md) measures the reproduced Table I against those values.
How each benchmark is generated lives in
:data:`repro.datasets.synthetic.RECIPES`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.datasets.base import Dataset

#: Per canonical name, in the paper's Table I order: the two-letter
#: abbreviation of Figs. 4/5, and the baseline accuracy and hardware Table I
#: reports.
_BENCHMARKS: dict[str, tuple[str, dict[str, float]]] = {
    "whitewine": ("WW", {"accuracy": 0.528, "comparators": 207, "inputs": 11,
                         "total_area_mm2": 261.3, "total_power_mw": 14.6}),
    "cardio": ("CA", {"accuracy": 0.906, "comparators": 85, "inputs": 19,
                      "total_area_mm2": 114.4, "total_power_mw": 12.5}),
    "arrhythmia": ("AR", {"accuracy": 0.627, "comparators": 39, "inputs": 21,
                          "total_area_mm2": 79.9, "total_power_mw": 12.0}),
    "balance_scale": ("BS", {"accuracy": 0.777, "comparators": 15, "inputs": 4,
                             "total_area_mm2": 30.6, "total_power_mw": 2.9}),
    "vertebral_3c": ("V3", {"accuracy": 0.860, "comparators": 7, "inputs": 5,
                            "total_area_mm2": 16.8, "total_power_mw": 2.8}),
    "seeds": ("SE", {"accuracy": 0.905, "comparators": 23, "inputs": 5,
                     "total_area_mm2": 27.3, "total_power_mw": 3.2}),
    "vertebral_2c": ("V2", {"accuracy": 0.871, "comparators": 7, "inputs": 5,
                            "total_area_mm2": 16.4, "total_power_mw": 2.8}),
    "pendigits": ("PD", {"accuracy": 0.950, "comparators": 215, "inputs": 16,
                         "total_area_mm2": 268.7, "total_power_mw": 17.2}),
}

#: Two-letter abbreviations used in Figs. 4/5 of the paper.
DATASET_ABBREVIATIONS: dict[str, str] = {
    name: abbreviation for name, (abbreviation, _) in _BENCHMARKS.items()
}


def dataset_names() -> list[str]:
    """Canonical names of the eight benchmarks, in the paper's order."""
    return list(_BENCHMARKS)


def canonical_name(name: str) -> str:
    """Resolve a dataset name or abbreviation to its canonical name."""
    lowered = name.strip().lower()
    if lowered in _BENCHMARKS:
        return lowered
    for canonical, abbreviation in DATASET_ABBREVIATIONS.items():
        if lowered == abbreviation.lower():
            return canonical
    raise KeyError(
        f"unknown dataset {name!r}; available: {dataset_names()} "
        f"or abbreviations {sorted(DATASET_ABBREVIATIONS.values())}"
    )


def load_dataset(name: str, seed: int = 0) -> Dataset:
    """Load one of the eight benchmarks by name or paper abbreviation.

    The recipes are imported on the first load, so naming and keying
    benchmarks (every store replay) imports none.
    """
    from repro.datasets.base import Dataset
    from repro.datasets.synthetic import RECIPES

    name = canonical_name(name)
    abbreviation, reference = _BENCHMARKS[name]
    recipe = RECIPES[name]
    X, y = recipe.generate(seed)
    return Dataset(
        name=name,
        X=X,
        y=y,
        feature_names=list(recipe.feature_names),
        class_names=list(recipe.class_names),
        description=recipe.description,
        metadata={
            "abbreviation": abbreviation,
            "paper_baseline_accuracy": reference["accuracy"],
            "synthetic_standin": recipe.synthetic_standin,
        },
    )


def paper_reference(name: str) -> dict[str, float]:
    """Paper-reported Table I values for the named benchmark."""
    return dict(_BENCHMARKS[canonical_name(name)][1])


def load_csv(
    path: str,
    name: str | None = None,
    label_column: int = -1,
    delimiter: str = ",",
    skip_header: int = 0,
) -> Dataset:
    """Load a real dataset from a numeric CSV file.

    This is the hook for working with the actual UCI data when it is
    available: features are min-max normalized to ``[0, 1]`` and labels are
    remapped to ``0 .. n_classes - 1``.  The result feeds the trainers and
    hardware models directly; the co-design flow runs on registered
    benchmarks only.

    Parameters
    ----------
    path:
        CSV file with numeric features and an integer-like label column.
    name:
        Dataset name (defaults to the file stem).
    label_column:
        Index of the label column (default: last column).
    delimiter, skip_header:
        Passed to :func:`numpy.genfromtxt`.
    """
    import numpy as np

    from repro.datasets.base import Dataset
    from repro.datasets.normalize import normalize_unit_range

    raw = np.genfromtxt(path, delimiter=delimiter, skip_header=skip_header)
    if raw.ndim != 2 or raw.shape[1] < 2:
        raise ValueError(f"{path}: expected a 2-D table with at least two columns")
    if np.isnan(raw).any():
        raise ValueError(f"{path}: CSV contains missing or non-numeric values")
    label_column = label_column % raw.shape[1]
    labels_raw = raw[:, label_column]
    X = np.delete(raw, label_column, axis=1)
    classes, y = np.unique(labels_raw, return_inverse=True)
    dataset_name = name if name is not None else str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return Dataset(
        name=dataset_name,
        X=normalize_unit_range(X),
        y=y.astype(np.int64),
        feature_names=[f"feature_{i}" for i in range(X.shape[1])],
        class_names=[str(c) for c in classes],
        description=f"Loaded from CSV file {path}",
        metadata={"synthetic_standin": False, "source_path": str(path)},
    )
