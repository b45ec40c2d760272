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

The ``shared_split_tables`` row times one benchmark's training protocol --
baseline [2]'s depth sweep, baseline [7]'s refits from the reference depth
up and the seven depth-8 tau families -- outside and inside a
:func:`~repro.mltrees.split_search.shared_split_tables` scope, after
asserting that both grow the same trees.
"""

import time

from oracles.legacy_split_search import LegacyADCAwareTrainer, LegacyCARTTrainer
from repro.analysis.render import render_table
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.exploration import DEFAULT_TAUS
from repro.datasets.registry import load_dataset
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
    """Baseline [2] depths 1..8, baseline [7] refits and the tau families."""
    approximate = range(reference_depth, min(DEPTH, reference_depth + APPROXIMATE_EXTRA_DEPTH) + 1)
    trees = [
        CARTTrainer(max_depth=depth, seed=seed).fit(X_levels, y, n_classes)
        for depth in (*range(1, DEPTH + 1), *approximate)
    ]
    return trees + [
        ADCAwareTrainer(max_depth=DEPTH, gini_threshold=tau, seed=seed).fit(X_levels, y, n_classes)
        for tau in DEFAULT_TAUS
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
        "Shared split tables (baseline [2] sweep, baseline [7] refits and "
        f"{len(DEFAULT_TAUS)} tau families; best of {SHARED_REPEATS} pairs)\n" + table
    )


def _bench_rows(rows, shared) -> list[dict]:
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
        }
    ]


def test_training_throughput(benchmark, bench_seed, write_report, write_bench_json):
    """Depth-8 full-grid training is >= 5x faster than the legacy loop."""
    rows = benchmark.pedantic(lambda: _measure(bench_seed), rounds=1, iterations=1)
    shared = _measure_shared(bench_seed)
    write_report("training_throughput", _render(rows) + "\n\n" + _render_shared(shared))
    write_bench_json("training", _bench_rows(rows, shared))
    total = rows[-1]
    assert total["speedup"] >= MIN_SPEEDUP, (
        f"full-grid training: only {total['speedup']:.1f}x over the legacy "
        f"split search (need >= {MIN_SPEEDUP:.0f}x)"
    )
