"""Benchmark -- baseline [7]'s precision search on the packed test split.

Baseline [7] narrows each input of a candidate tree one bit at a time and
keeps a narrowing while the tree stays within Table II's accuracy budget.
The production search (:func:`repro.baselines.balaskas._greedy_precision_scaling`)
scores each trial as one walk of the benchmark's packed test split
(:class:`~repro.mltrees.evaluation.PackedSplit`); the reference is the
per-trial search it replaced, which built an approximated tree and scored
it with ``predict_levels`` (``tests/oracles/precision_search.py``).

The row runs both searches on the real candidates of every benchmark at the
bench seed: baseline [2]'s reference depth and accuracy give the candidate
depths and the accuracy floor, exactly as
:func:`~repro.baselines.balaskas.fit_balaskas_design` does.  It asserts
that both return the same ``(bits, accuracy)`` for every candidate before
anything is timed, times the best of :data:`PAIRS` alternating pairs (the
packed side includes packing each benchmark's test split), and records
``baseline7/precision_search[TOTAL]`` in
``benchmarks/results/BENCH_baseline7.json``, gated by
``benchmarks/check_regression.py``.
"""

import time

from oracles import precision_search as oracle
from repro.analysis.render import render_table
from repro.baselines.balaskas import _greedy_precision_scaling
from repro.core.design import split_data
from repro.datasets.registry import dataset_names
from repro.mltrees.cart import CARTTrainer, fit_baseline_tree
from repro.mltrees.evaluation import PackedSplit

PAIRS = 5
#: ``fit_balaskas_design`` defaults: Table II's budget, extra depth, full precision.
LOSS_BUDGET, EXTRA_DEPTH, MAX_DEPTH, RESOLUTION = 0.01, 2, 10, 4


def _candidates(seed: int):
    """Per benchmark: its split, the accuracy floor and [7]'s candidate trees."""
    benchmarks = []
    for name in dataset_names():
        data = split_data(name, seed)
        reference = fit_baseline_tree(
            data.X_train_levels, data.y_train, data.X_test_levels, data.y_test,
            data.n_classes, seed=seed,
        )
        depths = range(
            max(1, reference.depth), min(MAX_DEPTH, reference.depth + EXTRA_DEPTH) + 1
        )
        trees = [
            CARTTrainer(max_depth=depth, seed=seed).fit(
                data.X_train_levels, data.y_train, data.n_classes
            )
            for depth in depths
        ]
        benchmarks.append((data, reference.test_accuracy - LOSS_BUDGET, trees))
    return benchmarks


def _packed(benchmarks):
    results = []
    for data, floor, trees in benchmarks:
        rows = PackedSplit(data.X_test_levels, data.y_test)
        for tree in trees:
            results.append(_greedy_precision_scaling(
                tree, rows, floor, RESOLUTION, rows.accuracy(tree)
            ))
    return results


def _per_trial(benchmarks):
    results = []
    for data, floor, trees in benchmarks:
        X, y = data.X_test_levels, data.y_test
        for tree in trees:
            exact = oracle.accuracy_score(y, tree.predict_levels(X))
            results.append(oracle.greedy_precision_scaling(
                tree, X, y, floor, RESOLUTION, exact
            ))
    return results


def _measure(seed: int) -> dict:
    benchmarks = _candidates(seed)
    # Equal answers first: the speedup compares the same searches.
    assert _packed(benchmarks) == _per_trial(benchmarks), "the packed search diverged"
    reference_s, packed_s = [], []
    for _ in range(PAIRS):
        start = time.perf_counter()
        _per_trial(benchmarks)
        reference_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        _packed(benchmarks)
        packed_s.append(time.perf_counter() - start)
    n_candidates = sum(len(trees) for _, _, trees in benchmarks)
    return {
        "n_candidates": n_candidates,
        "reference_s": min(reference_s),
        "packed_s": min(packed_s),
        "rate": n_candidates / min(packed_s),
        "speedup": min(reference_s) / min(packed_s),
    }


def test_precision_search_throughput(bench_seed, write_report, write_bench_json):
    """The packed precision search beats the per-trial trees on every benchmark."""
    row = _measure(bench_seed)
    write_report(
        "precision_search",
        f"Baseline [7] precision search over {len(dataset_names())} benchmarks: "
        f"per-trial trees -> packed test split (best of {PAIRS} pairs)\n"
        + render_table(
            ["candidates", "per-trial (s)", "packed (s)", "candidates/s", "speedup (x)"],
            [(row["n_candidates"], row["reference_s"], row["packed_s"], row["rate"],
              row["speedup"])],
        ),
    )
    write_bench_json("baseline7", [{
        "name": "precision_search",
        "dataset": "TOTAL",
        "samples_per_sec": row["rate"],
        "unit": "candidates/s",
        "speedup": row["speedup"],
    }])
    assert row["speedup"] > 1.0, "the packed search is no faster than per-trial trees"
