"""Ablation -- robustness of co-designed classifiers to comparator offsets.

Printed comparators have large input-offset variability.  The bespoke ADCs
retain very few comparators, so a natural question is how much accuracy the
co-designed classifiers lose when every retained comparator's trip point is
perturbed by a Gaussian offset.  This benchmark Monte-Carlo-simulates the
co-designed tree of two benchmarks across a range of offset sigmas (relative
to the 1 V full scale, i.e. 1 LSB of the 4-bit ADC is 62.5 mV).
"""

from repro.analysis.render import render_table
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.variation import simulate_offset_variation
from repro.datasets.registry import load_dataset
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.pdk.egfet import default_technology

DATASETS = ("seeds", "vertebral_3c")
SIGMAS_V = (0.0, 0.005, 0.010, 0.020, 0.040)
N_TRIALS = 25


def _sweep(seed: int = 0):
    technology = default_technology()
    rows = []
    for name in DATASETS:
        dataset = load_dataset(name, seed=seed)
        X_train, X_test, y_train, y_test = train_test_split(
            dataset.X, dataset.y, test_size=0.3, seed=seed
        )
        tree = ADCAwareTrainer(max_depth=4, gini_threshold=0.01, seed=seed).fit(
            quantize_dataset(X_train), y_train, dataset.n_classes
        )
        for sigma_v in SIGMAS_V:
            analysis = simulate_offset_variation(
                tree, X_test, y_test, sigma_v, n_trials=N_TRIALS,
                technology=technology, seed=seed,
            )
            rows.append(
                {
                    "dataset": name,
                    "sigma_mv": analysis.sigma_v * 1000.0,
                    "nominal_pct": analysis.nominal_accuracy * 100.0,
                    "mean_pct": analysis.mean_accuracy * 100.0,
                    "worst_pct": analysis.min_accuracy * 100.0,
                    "mean_drop_pct": analysis.mean_accuracy_drop * 100.0,
                }
            )
    return rows


def _render(rows) -> str:
    table = render_table(
        ["dataset", "offset sigma (mV)", "nominal acc (%)", "mean acc (%)",
         "worst acc (%)", "mean drop (%)"],
        [
            (r["dataset"], r["sigma_mv"], r["nominal_pct"], r["mean_pct"],
             r["worst_pct"], r["mean_drop_pct"])
            for r in rows
        ],
    )
    return (
        f"Monte-Carlo comparator-offset robustness ({N_TRIALS} trials per point; "
        f"1 LSB of the 4-bit ADC = 62.5 mV)\n" + table
    )


def test_ablation_comparator_offset_robustness(benchmark, bench_seed, write_report):
    """Sweep the comparator offset sigma and check graceful degradation."""
    rows = benchmark.pedantic(lambda: _sweep(bench_seed), rounds=1, iterations=1)
    write_report("ablation_offset_variation", _render(rows))

    by_dataset: dict[str, list[dict]] = {}
    for row in rows:
        by_dataset.setdefault(row["dataset"], []).append(row)
    for dataset_rows in by_dataset.values():
        dataset_rows.sort(key=lambda r: r["sigma_mv"])
        # zero offset loses nothing
        assert dataset_rows[0]["mean_drop_pct"] == 0.0
        # sub-LSB offsets (<= 20 mV) stay within a modest accuracy drop
        small_sigma = [r for r in dataset_rows if r["sigma_mv"] <= 20.0]
        assert all(r["mean_drop_pct"] < 10.0 for r in small_sigma)
        # degradation is monotone-ish: the largest sigma is at least as bad
        # as the smallest non-zero sigma
        assert dataset_rows[-1]["mean_drop_pct"] >= dataset_rows[1]["mean_drop_pct"] - 1.0
