"""Benchmark -- columnar vs. legacy split search on full-grid training.

The columnar :class:`~repro.mltrees.split_search.CandidateTable` refactor
replaced the per-feature Python loop and the per-candidate object
construction of the split search with one histogram/cumsum pass over all
features and array reductions during selection.  This benchmark measures the
end-to-end effect where it matters for the design-space exploration: a
depth-8 "full grid" training workload -- one conventional CART fit plus one
ADC-aware fit per tau of the paper's grid -- on the two widest benchmarks.

The legacy side runs the retained pre-refactor reference trainers
(``tests/oracles/legacy_split_search.py``), i.e. exactly the old hot loop;
the produced trees are asserted node-for-node identical before timing is
trusted, so the speedup compares equal answers.

The ``shared_split_tables`` row times one benchmark's reference CART fits
-- baseline [2]'s depth sweep and baseline [7]'s refits from the reference
depth up -- outside and inside a
:func:`~repro.mltrees.split_search.shared_split_tables` scope, after
asserting that both grow the same trees.  (ADC-aware fits enumerate whole
tree levels and do not use the memo, so they are not part of the row.)

The ``level_batched_growth`` row times the 56 depth-8 tau fits of one paper
pass (seed 0: eight benchmarks x seven tau) with the level-batched
ADC-aware trainer against the per-node trainer it replaced
(``tests/oracles/per_node_training.py``), after asserting equal trees.
"""

import time

from oracles.legacy_split_search import LegacyADCAwareTrainer, LegacyCARTTrainer
from oracles.per_node_training import PerNodeADCAwareTrainer
from repro.analysis.render import render_table
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.design import DesignSpec
from repro.core.exploration import DEFAULT_TAUS
from repro.datasets.registry import dataset_names, load_dataset
from repro.mltrees.cart import CARTTrainer, fit_baseline_tree
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.mltrees.split_search import shared_split_tables

DATASETS = ("cardio", "arrhythmia")
DEPTH = 8
MIN_SPEEDUP = 5.0
#: Benchmark, timed pairs and baseline [7]'s extra depth (``fit_balaskas_design``
#: default) of the shared-table row.
SHARED_DATASET = "cardio"
SHARED_REPEATS = 7
APPROXIMATE_EXTRA_DEPTH = 2
#: Timed pairs of the level-batched growth row (best of).
LEVEL_REPEATS = 3


def _training_data(name: str, seed: int):
    dataset = load_dataset(name, seed=seed)
    X_train, _, y_train, _ = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=seed
    )
    return quantize_dataset(X_train), y_train, dataset.n_classes


def _full_grid(cart_cls, adc_cls, X_levels, y, n_classes, seed: int):
    """Depth-8 grid workload: one CART fit + one ADC-aware fit per tau."""
    trees = [cart_cls(max_depth=DEPTH, seed=seed).fit(X_levels, y, n_classes)]
    for tau in DEFAULT_TAUS:
        trees.append(
            adc_cls(max_depth=DEPTH, gini_threshold=tau, seed=seed).fit(
                X_levels, y, n_classes
            )
        )
    return trees


def _measure(seed: int):
    rows = []
    for name in DATASETS:
        X_levels, y, n_classes = _training_data(name, seed)
        n_fits = 1 + len(DEFAULT_TAUS)

        start = time.perf_counter()
        columnar_trees = _full_grid(
            CARTTrainer, ADCAwareTrainer, X_levels, y, n_classes, seed
        )
        columnar_s = time.perf_counter() - start

        start = time.perf_counter()
        legacy_trees = _full_grid(
            LegacyCARTTrainer, LegacyADCAwareTrainer, X_levels, y, n_classes, seed
        )
        legacy_s = time.perf_counter() - start

        # The refactor must not change a single node before timing counts.
        assert columnar_trees == legacy_trees, f"trees diverge on {name}"

        rows.append(
            {
                "dataset": name,
                "n_fits": n_fits,
                "legacy_s": legacy_s,
                "columnar_s": columnar_s,
                "legacy_rate": n_fits / legacy_s,
                "columnar_rate": n_fits / columnar_s,
                "speedup": legacy_s / columnar_s,
            }
        )
    total_legacy = sum(r["legacy_s"] for r in rows)
    total_columnar = sum(r["columnar_s"] for r in rows)
    rows.append(
        {
            "dataset": "TOTAL",
            "n_fits": sum(r["n_fits"] for r in rows),
            "legacy_s": total_legacy,
            "columnar_s": total_columnar,
            "legacy_rate": sum(r["n_fits"] for r in rows) / total_legacy,
            "columnar_rate": sum(r["n_fits"] for r in rows) / total_columnar,
            "speedup": total_legacy / total_columnar,
        }
    )
    return rows


def _protocol_fits(X_levels, y, n_classes, reference_depth: int, seed: int):
    """Baseline [2] depths 1..8 and baseline [7]'s refits."""
    approximate = range(reference_depth, min(DEPTH, reference_depth + APPROXIMATE_EXTRA_DEPTH) + 1)
    return [
        CARTTrainer(max_depth=depth, seed=seed).fit(X_levels, y, n_classes)
        for depth in (*range(1, DEPTH + 1), *approximate)
    ]


def _measure_shared(seed: int) -> dict:
    """The shared-table row: the protocol's fits outside vs inside the scope."""
    dataset = load_dataset(SHARED_DATASET, seed=seed)
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=seed
    )
    X_levels, X_test_levels = quantize_dataset(X_train), quantize_dataset(X_test)
    reference_depth = fit_baseline_tree(
        X_levels, y_train, X_test_levels, y_test, dataset.n_classes, seed=seed
    ).depth
    fits = (X_levels, y_train, dataset.n_classes, reference_depth, seed)

    outside_s, inside_s = [], []
    for _ in range(SHARED_REPEATS):
        start = time.perf_counter()
        fresh = _protocol_fits(*fits)
        outside_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        with shared_split_tables():
            shared = _protocol_fits(*fits)
        inside_s.append(time.perf_counter() - start)
        assert shared == fresh, "shared split tables changed a tree"
    outside, inside = min(outside_s), min(inside_s)
    return {
        "dataset": SHARED_DATASET,
        "n_fits": len(fresh),
        "outside_s": outside,
        "inside_s": inside,
        "rate": len(fresh) / inside,
        "speedup": outside / inside,
    }


def _tau_fits(trainer_cls, splits, seed: int):
    """The depth-8 tau family fits of one paper pass."""
    return [
        trainer_cls(max_depth=DEPTH, gini_threshold=tau, seed=seed).fit(*split)
        for split in splits
        for tau in DEFAULT_TAUS
    ]


def _measure_level_batched(seed: int) -> dict:
    """The level-batched row: 56 tau fits, per-node trainer vs level grower."""
    splits = []
    for name in dataset_names():
        data = DesignSpec(name, seed).data()
        splits.append((data.X_train_levels, data.y_train, data.n_classes))
    per_node_s, level_s = [], []
    for _ in range(LEVEL_REPEATS):
        start = time.perf_counter()
        per_node = _tau_fits(PerNodeADCAwareTrainer, splits, seed)
        per_node_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        batched = _tau_fits(ADCAwareTrainer, splits, seed)
        level_s.append(time.perf_counter() - start)
        assert batched == per_node, "level-batched growth changed a tree"
    per_node_best, level_best = min(per_node_s), min(level_s)
    return {
        "dataset": "TOTAL",
        "n_fits": len(batched),
        "per_node_s": per_node_best,
        "level_s": level_best,
        "rate": len(batched) / level_best,
        "speedup": per_node_best / level_best,
    }


def _render(rows) -> str:
    table = render_table(
        ["dataset", "fits", "legacy (s)", "columnar (s)",
         "legacy fits/s", "columnar fits/s", "speedup (x)"],
        [
            (r["dataset"], r["n_fits"], r["legacy_s"], r["columnar_s"],
             r["legacy_rate"], r["columnar_rate"], r["speedup"])
            for r in rows
        ],
    )
    return (
        f"Columnar split-search training throughput (depth-{DEPTH} full-grid "
        f"workload: 1 CART + {len(DEFAULT_TAUS)} ADC-aware fits per dataset)\n"
        + table
    )


def _render_shared(row) -> str:
    table = render_table(
        ["dataset", "fits", "outside scope (s)", "inside scope (s)", "fits/s", "speedup (x)"],
        [(row["dataset"], row["n_fits"], row["outside_s"], row["inside_s"],
          row["rate"], row["speedup"])],
    )
    return (
        "Shared split tables (baseline [2] sweep and baseline [7] refits; "
        f"best of {SHARED_REPEATS} pairs)\n" + table
    )


def _render_level(row) -> str:
    table = render_table(
        ["fits", "per-node (s)", "level-batched (s)", "fits/s", "speedup (x)"],
        [(row["n_fits"], row["per_node_s"], row["level_s"], row["rate"], row["speedup"])],
    )
    return (
        f"Level-batched ADC-aware growth (depth-{DEPTH} tau fits of one paper pass; "
        f"best of {LEVEL_REPEATS} pairs)\n" + table
    )


def _bench_rows(rows, shared, level) -> list[dict]:
    """Rows of ``BENCH_training.json`` (schema: benchmarks/conftest.py)."""
    return [
        {
            "name": "full_grid_fits" if r["dataset"] != "TOTAL" else "full_grid_total",
            "dataset": r["dataset"],
            "samples_per_sec": r["columnar_rate"],
            "unit": "fits/s",
            "speedup": r["speedup"],
        }
        for r in rows
    ] + [
        {
            "name": "shared_split_tables",
            "dataset": shared["dataset"],
            "samples_per_sec": shared["rate"],
            "unit": "fits/s",
            "speedup": shared["speedup"],
        },
        {
            "name": "level_batched_growth",
            "dataset": level["dataset"],
            "samples_per_sec": level["rate"],
            "unit": "fits/s",
            "speedup": level["speedup"],
        },
    ]


def test_training_throughput(benchmark, bench_seed, write_report, write_bench_json):
    """Depth-8 full-grid training is >= 5x faster than the legacy loop."""
    rows = benchmark.pedantic(lambda: _measure(bench_seed), rounds=1, iterations=1)
    shared = _measure_shared(bench_seed)
    level = _measure_level_batched(bench_seed)
    write_report(
        "training_throughput",
        _render(rows) + "\n\n" + _render_shared(shared) + "\n\n" + _render_level(level),
    )
    write_bench_json("training", _bench_rows(rows, shared, level))
    total = rows[-1]
    assert total["speedup"] >= MIN_SPEEDUP, (
        f"full-grid training: only {total['speedup']:.1f}x over the legacy "
        f"split search (need >= {MIN_SPEEDUP:.0f}x)"
    )
