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
"""

import time

from oracles.legacy_split_search import LegacyADCAwareTrainer, LegacyCARTTrainer
from repro.analysis.render import render_table
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.exploration import DEFAULT_TAUS
from repro.datasets.registry import load_dataset
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset

DATASETS = ("cardio", "arrhythmia")
DEPTH = 8
MIN_SPEEDUP = 5.0


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


def _bench_rows(rows) -> list[dict]:
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
    ]


def test_training_throughput(benchmark, bench_seed, write_report, write_bench_json):
    """Depth-8 full-grid training is >= 5x faster than the legacy loop."""
    rows = benchmark.pedantic(lambda: _measure(bench_seed), rounds=1, iterations=1)
    write_report("training_throughput", _render(rows))
    write_bench_json("training", _bench_rows(rows))
    total = rows[-1]
    assert total["speedup"] >= MIN_SPEEDUP, (
        f"full-grid training: only {total['speedup']:.1f}x over the legacy "
        f"split search (need >= {MIN_SPEEDUP:.0f}x)"
    )
