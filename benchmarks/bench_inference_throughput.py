"""Benchmark -- scalar vs. batch vs. bit-parallel inference throughput.

The vectorized engine evaluates whole sample matrices (and whole
``(n_trials, n_comparators)`` offset matrices) in a handful of ndarray ops
where the pre-refactor implementation looped in the interpreter, one
dict-based digit assignment per sample per trial.  This benchmark measures
both paths on the same trained classifier -- 1k-sample prediction and a
1k-trial offset Monte-Carlo -- and records samples/sec, trials/sec and the
resulting speedup so the gain stays visible in the BENCH trajectory.

The scalar reference paths are the *retained* per-row APIs
(``predict_one_level`` / ``predict_from_assignment``), i.e. exactly the old
hot loops; the batch numbers use ``predict_levels`` and
``simulate_offset_variation``.  Both pairs are asserted bit-identical before
timing, so the speedups compare equal answers.

The third tier is the bit-parallel kernel of :mod:`repro.core.bitkernel`
(layout and semantics in ``docs/KERNELS.md``): the tree's two-level cube
logic evaluated one bit per sample, the one evaluator of digit matrices;
at this size it runs on ``uint64`` words, 64 samples per machine word.  It
is measured against the ndarray label-logic oracle
(``tests/oracles/batch_logic.py``, the batch path it replaced) on a
depth-8 classifier at 2^19 samples -- large enough that both sides are out
of warm-up noise -- and must clear :data:`MIN_KERNEL_SPEEDUP` after its
predictions are asserted bit-identical to both the oracle and
``DecisionTree.predict_levels``.  The scalar Monte-Carlo reference is
``tests/oracles/variation.py``.

The ``kernel_small_batch`` row times the kernel where the scorer uses it:
``predict_levels`` on batches of 1, 4, 16 and 64 rows of the same depth-8
classifier, which run on Python ``int`` bitsets, against the all-words
evaluator they replaced (``tests/oracles/packed_kernel.py``), after asserting
equal labels on every batch.

The ``surface_cells`` row times the Monte-Carlo half of a cold robustness
surface: every one of cardio's 49 depth x tau grid trees, freshly unpickled
per call as a store-backed run receives it, simulated at three offset
sigmas.  The reference is the per-call path of
``tests/oracles/variation.py`` (a new translation per call, one offset row
drawn and one ``accuracy_score`` per trial); the fast path is
``simulate_offset_variation``, which translates each distinct tree once
(starting from an empty translation memo, as a fresh process does), draws
all offsets in one call and scores every trial in one array pass.  Both
return identical accuracies, asserted on every timed pair; the row records
the best of :data:`SURFACE_PAIRS` alternating pairs.

Alongside the human-readable report this module emits
``benchmarks/results/BENCH_inference.json`` (see the ``write_bench_json``
fixture), the machine-readable trajectory record gated by
``benchmarks/check_regression.py``.
"""

import pickle
import time

import numpy as np

from oracles.batch_logic import batch_oracle
from oracles.packed_kernel import PackedWordKernel
from oracles.variation import _predict_with_offsets_scalar, simulate_per_trial
from repro.analysis.render import render_table
from repro.core import unary_tree
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.design import DesignSpec, split_data
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS
from repro.core.unary_tree import UnaryDecisionTree
from repro.core.variation import ComparatorOffsetModel, simulate_offset_variation
from repro.datasets.registry import load_dataset
from repro.mltrees.evaluation import accuracy_score, train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.pdk.egfet import default_technology

DATASET = "seeds"
N_SAMPLES = 1000          # prediction batch size
N_TRIALS = 1000           # Monte-Carlo trials evaluated by the batch path
N_SCALAR_TRIALS = 20      # trials actually run through the scalar loop
SIGMA_V = 0.02
MIN_SPEEDUP = 10.0

KERNEL_DATASET = "cardio"  # widest benchmark with a stable >= 10x margin
KERNEL_DEPTH = 8
N_KERNEL_SAMPLES = 1 << 19
N_TIMING_REPEATS = 7       # best-of repeats; throughput gates time the floor
MIN_KERNEL_SPEEDUP = 10.0
SMALL_BATCHES = (1, 4, 16, 64)  # serving-sized flushes, int-bitset path
N_SMALL_PASSES = 50        # passes over SMALL_BATCHES per timing

SURFACE_DATASET = "cardio"
SURFACE_SIGMAS = (0.01, 0.02, 0.04)
SURFACE_TRIALS = 100
SURFACE_PAIRS = 5


def _fit(seed: int):
    dataset = load_dataset(DATASET, seed=seed)
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=seed
    )
    tree = ADCAwareTrainer(max_depth=4, gini_threshold=0.01, seed=seed).fit(
        quantize_dataset(X_train), y_train, dataset.n_classes
    )
    repeats = -(-N_SAMPLES // len(X_test))  # ceil division
    X_big = np.tile(X_test, (repeats, 1))[:N_SAMPLES]
    y_big = np.tile(y_test, repeats)[:N_SAMPLES]
    return UnaryDecisionTree(tree), X_big, y_big, X_test, y_test


def _best_of(func, repeats: int = N_TIMING_REPEATS) -> float:
    """Floor of ``repeats`` wall-clock timings of ``func()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_small_batches(kernel, X_levels) -> dict:
    """Serving-sized ``predict_levels`` calls vs. the all-words kernel."""
    oracle = PackedWordKernel(kernel)
    batches = [X_levels[:size] for size in SMALL_BATCHES]
    for batch in batches:
        np.testing.assert_array_equal(
            kernel.predict_levels(batch), oracle.predict_levels(batch)
        )

    def passes(predict):
        for _ in range(N_SMALL_PASSES):
            for batch in batches:
                predict(batch)

    words_s = _best_of(lambda: passes(oracle.predict_levels))
    kernel_s = _best_of(lambda: passes(kernel.predict_levels))
    n_rows = N_SMALL_PASSES * sum(SMALL_BATCHES)
    return {
        "workload": (
            f"kernel batches of {'/'.join(map(str, SMALL_BATCHES))} rows "
            f"({KERNEL_DATASET} d={KERNEL_DEPTH})"
        ),
        "ref_s": words_s,
        "fast_s": kernel_s,
        "ref_rate": n_rows / words_s,
        "fast_rate": n_rows / kernel_s,
        "unit": "samples/s",
        "speedup": words_s / kernel_s,
    }


def _measure_kernel(seed: int) -> list[dict]:
    """Bit-parallel kernel vs. the ndarray batch oracle on a depth-8 classifier,
    and on serving-sized batches vs. the all-words kernel it replaced."""
    dataset = load_dataset(KERNEL_DATASET, seed=seed)
    X_train, X_test, y_train, _ = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=seed
    )
    tree = ADCAwareTrainer(max_depth=KERNEL_DEPTH, gini_threshold=0.01, seed=seed).fit(
        quantize_dataset(X_train), y_train, dataset.n_classes
    )
    unary = UnaryDecisionTree(tree)
    kernel = unary.kernel
    oracle = batch_oracle(unary)
    repeats = -(-N_KERNEL_SAMPLES // len(X_test))  # ceil division
    levels = quantize_dataset(np.tile(X_test, (repeats, 1))[:N_KERNEL_SAMPLES])
    digits = oracle.digits_from_levels(levels)

    # Bit-equivalence to the tree oracle comes before any timing is trusted:
    # the packed kernel, the batch oracle and the tree's own gather must
    # agree on every one of the 2^19 samples (argmax ties included).
    batch_pred = oracle.predict(digits)
    kernel_pred = kernel.predict_digit_matrix(digits)
    np.testing.assert_array_equal(kernel_pred, batch_pred)
    np.testing.assert_array_equal(kernel_pred, tree.predict_levels(levels))

    batch_s = _best_of(lambda: oracle.predict(digits))
    kernel_s = _best_of(lambda: kernel.predict_digit_matrix(digits))
    batch_rate = N_KERNEL_SAMPLES / batch_s
    kernel_rate = N_KERNEL_SAMPLES / kernel_s
    large = {
        "workload": (
            f"bit-parallel kernel {N_KERNEL_SAMPLES} samples "
            f"({KERNEL_DATASET} d={KERNEL_DEPTH})"
        ),
        "ref_s": batch_s,
        "fast_s": kernel_s,
        "ref_rate": batch_rate,
        "fast_rate": kernel_rate,
        "unit": "samples/s",
        "speedup": kernel_rate / batch_rate,
    }
    return [large, _measure_small_batches(kernel, quantize_dataset(X_test))]


def _measure(seed: int):
    unary, X_big, _, X_test, y_test = _fit(seed)
    technology = default_technology()
    levels_big = quantize_dataset(X_big)

    # -- 1k-sample prediction ------------------------------------------- #
    start = time.perf_counter()
    scalar_pred = np.array(
        [unary.predict_one_level(row) for row in levels_big], dtype=np.int64
    )
    scalar_pred_s = time.perf_counter() - start

    start = time.perf_counter()
    batch_pred = unary.predict_levels(levels_big)
    batch_pred_s = time.perf_counter() - start
    np.testing.assert_array_equal(batch_pred, scalar_pred)

    # -- offset Monte-Carlo --------------------------------------------- #
    model = ComparatorOffsetModel(sigma_v=SIGMA_V)
    rng = np.random.default_rng(seed)
    comparators = unary.comparators
    scalar_accuracies = []
    start = time.perf_counter()
    for _ in range(N_SCALAR_TRIALS):
        offsets = dict(zip(comparators, model.sample(rng, len(comparators))))
        predictions = _predict_with_offsets_scalar(
            unary, X_test, offsets, technology.vdd
        )
        scalar_accuracies.append(accuracy_score(y_test, predictions))
    scalar_mc_s = time.perf_counter() - start

    start = time.perf_counter()
    analysis = simulate_offset_variation(
        unary, X_test, y_test, SIGMA_V, n_trials=N_TRIALS,
        technology=technology, seed=seed,
    )
    batch_mc_s = time.perf_counter() - start
    # Same seed => the first scalar trials must reproduce bit-identically.
    assert list(analysis.accuracies[:N_SCALAR_TRIALS]) == scalar_accuracies

    scalar_pred_rate = len(levels_big) / scalar_pred_s
    batch_pred_rate = len(levels_big) / batch_pred_s
    scalar_mc_rate = N_SCALAR_TRIALS / scalar_mc_s
    batch_mc_rate = N_TRIALS / batch_mc_s
    return [
        {
            "workload": f"predict {len(levels_big)} samples",
            "ref_s": scalar_pred_s,
            "fast_s": batch_pred_s,
            "ref_rate": scalar_pred_rate,
            "fast_rate": batch_pred_rate,
            "unit": "samples/s",
            "speedup": batch_pred_rate / scalar_pred_rate,
        },
        {
            "workload": f"offset Monte-Carlo {N_TRIALS} trials",
            "ref_s": scalar_mc_s * (N_TRIALS / N_SCALAR_TRIALS),
            "fast_s": batch_mc_s,
            "ref_rate": scalar_mc_rate,
            "fast_rate": batch_mc_rate,
            "unit": "trials/s",
            "speedup": batch_mc_rate / scalar_mc_rate,
        },
        *_measure_kernel(seed),
    ]


def _render(rows) -> str:
    table = render_table(
        ["workload", "reference (s)", "fast (s)", "reference rate", "fast rate",
         "unit", "speedup (x)"],
        [
            (r["workload"], r["ref_s"], r["fast_s"], r["ref_rate"],
             r["fast_rate"], r["unit"], r["speedup"])
            for r in rows
        ],
    )
    return (
        f"Inference throughput: scalar -> batch on {DATASET}, batch -> "
        f"bit-parallel kernel on {KERNEL_DATASET} (scalar Monte-Carlo "
        f"extrapolated from {N_SCALAR_TRIALS} measured trials)\n" + table
    )


_BENCH_ROW_NAMES = (
    "batch_predict", "batch_monte_carlo", "bitparallel_kernel", "kernel_small_batch",
)
_BENCH_DATASETS = (DATASET, DATASET, KERNEL_DATASET, KERNEL_DATASET)


def _bench_rows(rows) -> list[dict]:
    """Rows of ``BENCH_inference.json`` (schema: benchmarks/conftest.py)."""
    return [
        {
            "name": name,
            "dataset": dataset,
            "samples_per_sec": row["fast_rate"],
            "unit": row["unit"],
            "speedup": row["speedup"],
        }
        for name, dataset, row in zip(_BENCH_ROW_NAMES, _BENCH_DATASETS, rows)
    ]


def test_batch_inference_throughput(benchmark, bench_seed, write_report, write_bench_json):
    """Batch is >= 10x over scalar; the packed kernel >= 10x over batch;
    serving-sized batches beat the all-words kernel."""
    rows = benchmark.pedantic(lambda: _measure(bench_seed), rounds=1, iterations=1)
    write_report("inference_throughput", _render(rows))
    write_bench_json("inference", _bench_rows(rows))
    predict_row, monte_carlo_row, kernel_row, small_row = rows
    for row in (predict_row, monte_carlo_row):
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{row['workload']}: only {row['speedup']:.1f}x over the scalar loop"
        )
    assert kernel_row["speedup"] >= MIN_KERNEL_SPEEDUP, (
        f"{kernel_row['workload']}: only {kernel_row['speedup']:.1f}x over the "
        f"batch path (need >= {MIN_KERNEL_SPEEDUP:.0f}x)"
    )
    assert small_row["speedup"] > 1.0, (
        f"{small_row['workload']}: no faster than the all-words kernel"
    )


def _grid_tree_pickles(seed: int) -> list[bytes]:
    """Pickles of the benchmark's depth x tau grid trees, one family per tau."""
    pickles = []
    for tau in DEFAULT_TAUS:
        deepest = DesignSpec(SURFACE_DATASET, seed, max(DEFAULT_DEPTHS), tau).train()
        pickles += [pickle.dumps(deepest.truncated(depth)) for depth in DEFAULT_DEPTHS]
    return pickles


def _measure_surface_cells(seed: int) -> dict:
    """Per-call reference vs. memoized Monte-Carlo over one benchmark's grid."""
    pickles = _grid_tree_pickles(seed)
    data = split_data(SURFACE_DATASET, seed)
    technology = default_technology()
    n_cells = len(pickles) * len(SURFACE_SIGMAS)

    def reference():
        return [
            simulate_per_trial(
                pickle.loads(blob), data.X_test, data.y_test, sigma, SURFACE_TRIALS,
                technology.vdd, seed,
            )
            for sigma in SURFACE_SIGMAS
            for blob in pickles
        ]

    def fast():
        results = []
        for sigma in SURFACE_SIGMAS:
            for blob in pickles:
                analysis = simulate_offset_variation(
                    pickle.loads(blob), data.X_test, data.y_test, sigma,
                    n_trials=SURFACE_TRIALS, technology=technology, seed=seed,
                )
                results.append((analysis.nominal_accuracy, analysis.accuracies))
        return results

    ref_s, fast_s = [], []
    for _ in range(SURFACE_PAIRS):
        start = time.perf_counter()
        expected = reference()
        ref_s.append(time.perf_counter() - start)
        unary_tree._translations.clear()  # a cold process: every tree translates once
        start = time.perf_counter()
        measured = fast()
        fast_s.append(time.perf_counter() - start)
        assert measured == expected, "the memoized Monte-Carlo changed an accuracy"
    return {
        "workload": (
            f"{n_cells} surface cells ({SURFACE_DATASET}, {len(SURFACE_SIGMAS)} "
            f"sigmas, {SURFACE_TRIALS} trials)"
        ),
        "ref_s": min(ref_s),
        "fast_s": min(fast_s),
        "ref_rate": n_cells / min(ref_s),
        "fast_rate": n_cells / min(fast_s),
        "unit": "cells/s",
        "speedup": min(ref_s) / min(fast_s),
    }


def test_surface_cells_throughput(bench_seed, write_report, write_bench_json):
    """The memoized Monte-Carlo beats the per-call path on a grid's cells."""
    row = _measure_surface_cells(bench_seed)
    write_report(
        "surface_cells",
        f"Monte-Carlo over {SURFACE_DATASET}'s grid: per-call path -> one "
        f"translation per tree (best of {SURFACE_PAIRS} pairs)\n"
        + render_table(
            ["workload", "reference (s)", "fast (s)", "reference rate", "fast rate",
             "unit", "speedup (x)"],
            [(row["workload"], row["ref_s"], row["fast_s"], row["ref_rate"],
              row["fast_rate"], row["unit"], row["speedup"])],
        ),
    )
    write_bench_json("variation", [{
        "name": "surface_cells",
        "dataset": SURFACE_DATASET,
        "samples_per_sec": row["fast_rate"],
        "unit": row["unit"],
        "speedup": row["speedup"],
    }])
    assert row["speedup"] > 1.0, f"{row['workload']}: no faster than the per-call path"
