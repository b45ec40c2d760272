"""Variability and timing sign-off of a co-designed printed classifier.

Printed processes are far more variable and far slower than silicon.  Before
committing a co-designed classifier to fabrication, two sign-off questions
matter beyond area and power:

1. **Comparator offsets** -- the bespoke ADCs keep only a handful of
   comparators, each of which may trip early or late by a random offset.
   How much classification accuracy survives realistic offset sigmas?
2. **Timing** -- EGFET gates switch in milliseconds.  Does the classifier's
   critical path fit inside the 50 ms sampling period at 20 Hz?
3. **Seed stability** -- how much do the headline gains move across dataset
   splits and training seeds?

Run with::

    python examples/variability_robustness.py
"""

from repro import UnaryDecisionTree, default_technology, load_dataset
from repro.analysis.render import render_table
from repro.analysis.stats import run_multi_seed
from repro.circuits.timing import estimate_timing
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.core.variation import simulate_offset_variation
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset

DATASET = "vertebral_3c"


def main() -> None:
    technology = default_technology()
    dataset = load_dataset(DATASET, seed=0)
    X_train, X_test, y_train, y_test = train_test_split(
        dataset.X, dataset.y, test_size=0.3, seed=0
    )
    tree = ADCAwareTrainer(max_depth=4, gini_threshold=0.01, seed=0).fit(
        quantize_dataset(X_train), y_train, dataset.n_classes
    )
    unary = UnaryDecisionTree(tree)

    # ------------------------------------------------------------------ #
    # 1. comparator-offset Monte Carlo
    # ------------------------------------------------------------------ #
    # The vectorized Monte-Carlo evaluates all trials as one offset matrix,
    # so thousands of trials per sigma are cheap.  (`repro.cli variation
    # --jobs 4` fans a stored sigma sweep over worker processes.)
    analyses = [
        simulate_offset_variation(
            unary, X_test, y_test, sigma_v, n_trials=1000,
            technology=technology, seed=0,
        )
        for sigma_v in (0.0, 0.005, 0.01, 0.02, 0.04)
    ]
    print(f"comparator-offset robustness on '{DATASET}' "
          f"(1000 trials/sigma; 1 LSB of the 4-bit ADC = 62.5 mV):")
    print(render_table(
        ["offset sigma (mV)", "nominal acc (%)", "mean acc (%)", "worst acc (%)"],
        [
            (a.sigma_v * 1000.0, a.nominal_accuracy * 100.0,
             a.mean_accuracy * 100.0, a.min_accuracy * 100.0)
            for a in analyses
        ],
    ))

    # ------------------------------------------------------------------ #
    # 2. timing sign-off at 20 Hz
    # ------------------------------------------------------------------ #
    timing = estimate_timing(unary.to_netlist(), technology)
    print(f"\ntiming: critical path {timing.critical_path_delay_ms:.1f} ms over "
          f"{timing.logic_depth} cells vs a {timing.sampling_period_ms:.0f} ms "
          f"sampling period -> {'MEETS timing' if timing.meets_timing else 'VIOLATES timing'} "
          f"(slack {timing.slack_ms:.1f} ms)")

    # ------------------------------------------------------------------ #
    # 3. seed stability of the headline gains
    # ------------------------------------------------------------------ #
    summary = run_multi_seed(DATASET, seeds=(0, 1, 2), accuracy_loss=0.01)
    print(f"\nheadline gains across seeds {summary.seeds} (<=1% accuracy loss):")
    print(render_table(
        ["metric", "mean", "std", "min", "max"],
        [
            ("co-design power (mW)", summary.codesign_power_mw.mean,
             summary.codesign_power_mw.std, summary.codesign_power_mw.minimum,
             summary.codesign_power_mw.maximum),
            ("power reduction vs [2] (x)", summary.power_reduction_x.mean,
             summary.power_reduction_x.std, summary.power_reduction_x.minimum,
             summary.power_reduction_x.maximum),
            ("area reduction vs [2] (x)", summary.area_reduction_x.mean,
             summary.area_reduction_x.std, summary.area_reduction_x.minimum,
             summary.area_reduction_x.maximum),
        ],
    ))
    print(f"self-powered in {summary.self_powered_fraction * 100:.0f}% of the seeds")


if __name__ == "__main__":
    main()
