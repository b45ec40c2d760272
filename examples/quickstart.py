"""Quickstart: co-design a self-powered printed classifier in a few lines.

This walks the shortest path through the library:

1. load a benchmark dataset (the synthetic stand-in for UCI ``seeds``),
2. run the full co-design flow on it (baseline [2], parallel unary
   architecture with bespoke ADCs, ADC-aware training + exploration) --
   the benchmark suite runner, here without a result store,
3. print the accuracy, area, power and self-power verdict of each step.

Run with::

    python examples/quickstart.py
"""

from repro import load_dataset
from repro.analysis.experiments import run_benchmark_suite


def main() -> None:
    dataset = load_dataset("seeds", seed=0)
    print(f"dataset: {dataset.name} -- {dataset.n_samples} samples, "
          f"{dataset.n_features} features, {dataset.n_classes} classes")

    (result,) = run_benchmark_suite(
        (dataset.name,), seed=0, include_approximate_baseline=False, store=None
    )

    baseline = result.baseline
    print("\n[1] Baseline bespoke decision tree [2] (conventional flash ADCs)")
    print(f"    accuracy : {baseline.accuracy * 100:5.1f} %  (depth {baseline.depth})")
    print(f"    area     : {baseline.hardware.total_area_mm2:7.1f} mm2 "
          f"({baseline.hardware.adc_area_fraction * 100:.0f}% ADCs)")
    print(f"    power    : {baseline.hardware.total_power_mw:7.2f} mW "
          f"({baseline.hardware.adc_power_fraction * 100:.0f}% ADCs)")

    unary = result.unary_bespoke_adc
    fig4 = result.fig4_reduction()
    print("\n[2] Same model, parallel unary architecture + bespoke ADCs")
    print(f"    area     : {unary.hardware.total_area_mm2:7.1f} mm2 "
          f"({fig4.area_factor:.1f}x smaller)")
    print(f"    power    : {unary.hardware.total_power_mw:7.2f} mW "
          f"({fig4.power_factor:.1f}x lower)")

    chosen = result.selected[0.01]
    table2 = result.table2_reduction(0.01)
    self_power = result.self_power(0.01)
    print("\n[3] ADC-aware co-design (<= 1% accuracy loss)")
    print(f"    accuracy : {chosen.accuracy * 100:5.1f} %  "
          f"(depth {chosen.depth}, tau {chosen.tau:g})")
    print(f"    area     : {chosen.hardware.total_area_mm2:7.2f} mm2 "
          f"({table2.area_factor:.1f}x smaller than the baseline)")
    print(f"    power    : {chosen.hardware.total_power_mw:7.3f} mW "
          f"({table2.power_factor:.1f}x lower than the baseline)")
    print(f"    system   : {self_power.total_power_mw:.3f} mW with sensors -> "
          f"{'SELF-POWERED' if self_power.is_self_powered else 'needs a battery'} "
          f"(budget {self_power.harvester_budget_mw:.1f} mW)")


if __name__ == "__main__":
    main()
