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

The third tier is the packed-uint64 kernel of :mod:`repro.core.bitkernel`
(layout and semantics in ``docs/KERNELS.md``): the tree's two-level cube
logic evaluated 64 samples per machine word, the one evaluator of digit
matrices.  It is measured against the ndarray label-logic oracle
(``tests/oracles/batch_logic.py``, the batch path it replaced) on a
depth-8 classifier at 2^19 samples -- large enough that both sides are out
of warm-up noise -- and must clear :data:`MIN_KERNEL_SPEEDUP` after its
predictions are asserted bit-identical to both the oracle and
``DecisionTree.predict_levels``.  The scalar Monte-Carlo reference is
``tests/oracles/variation.py``.

Alongside the human-readable report this module emits
``benchmarks/results/BENCH_inference.json`` (see the ``write_bench_json``
fixture), the machine-readable trajectory record gated by
``benchmarks/check_regression.py``.
"""

import time

import numpy as np

from oracles.batch_logic import batch_oracle
from oracles.variation import _predict_with_offsets_scalar
from repro.analysis.render import render_table
from repro.core.adc_aware_training import ADCAwareTrainer
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


def _measure_kernel(seed: int):
    """Bit-parallel kernel vs. the ndarray batch oracle on a depth-8 classifier."""
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
    return {
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
        _measure_kernel(seed),
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


_BENCH_ROW_NAMES = ("batch_predict", "batch_monte_carlo", "bitparallel_kernel")
_BENCH_DATASETS = (DATASET, DATASET, KERNEL_DATASET)


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
    """Batch is >= 10x over scalar; the packed kernel >= 10x over batch."""
    rows = benchmark.pedantic(lambda: _measure(bench_seed), rounds=1, iterations=1)
    write_report("inference_throughput", _render(rows))
    write_bench_json("inference", _bench_rows(rows))
    for row in rows[:-1]:
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{row['workload']}: only {row['speedup']:.1f}x over the scalar loop"
        )
    kernel_row = rows[-1]
    assert kernel_row["speedup"] >= MIN_KERNEL_SPEEDUP, (
        f"{kernel_row['workload']}: only {kernel_row['speedup']:.1f}x over the "
        f"batch path (need >= {MIN_KERNEL_SPEEDUP:.0f}x)"
    )
