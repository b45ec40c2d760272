"""Healthcare patch: posture/vertebral-condition screening on a smart bandage.

The paper motivates printed classifiers for healthcare disposables such as
smart bandages.  This example uses the vertebral-column benchmark (the
2-class normal/abnormal screening task) and walks the comparison the paper's
Table II makes: exact baseline [2], approximate baseline [7], and the
proposed co-design -- all for at most 1 % accuracy loss -- ending with the
self-power verdict for a wearable printed patch.

Run with::

    python examples/healthcare_patch_posture.py
"""

from repro import load_dataset
from repro.analysis.experiments import run_benchmark_suite
from repro.analysis.render import render_table


def main() -> None:
    dataset = load_dataset("vertebral_2c", seed=0)
    print(f"screening task: {dataset.name} -- {dataset.n_samples} patients, "
          f"{dataset.n_features} biomechanical attributes, "
          f"{dataset.n_classes} classes {dataset.class_names}")

    (result,) = run_benchmark_suite(
        (dataset.name,), seed=0, include_approximate_baseline=True, store=None
    )

    rows = []
    baseline = result.baseline
    rows.append((
        "exact baseline [2]", f"{baseline.accuracy * 100:.1f}",
        baseline.hardware.total_area_mm2, baseline.hardware.total_power_mw,
        baseline.hardware.total_power_mw <= 2.0,
    ))
    approximate = result.approximate_baseline
    if approximate is not None:
        rows.append((
            "approximate [7]", f"{approximate.accuracy * 100:.1f}",
            approximate.hardware.total_area_mm2, approximate.hardware.total_power_mw,
            approximate.hardware.total_power_mw <= 2.0,
        ))
    unary = result.unary_bespoke_adc
    rows.append((
        "unary + bespoke ADCs (same model)", f"{unary.accuracy * 100:.1f}",
        unary.hardware.total_area_mm2, unary.hardware.total_power_mw,
        unary.hardware.total_power_mw <= 2.0,
    ))
    chosen = result.selected.get(0.01)
    if chosen is not None:
        rows.append((
            "proposed co-design (<=1% loss)", f"{chosen.accuracy * 100:.1f}",
            chosen.hardware.total_area_mm2, chosen.hardware.total_power_mw,
            chosen.hardware.total_power_mw <= 2.0,
        ))

    print()
    print(render_table(
        ["implementation", "accuracy (%)", "area (mm2)", "power (mW)", "< 2 mW"],
        rows,
    ))

    table2 = result.table2_reduction(0.01)
    versus_approx = result.table2_reduction_vs_approximate(0.01)
    if table2 is not None:
        print(f"\nco-design vs exact baseline [2]: "
              f"{table2.area_factor:.1f}x area, {table2.power_factor:.1f}x power")
    if versus_approx is not None:
        print(f"co-design vs approximate [7]   : "
              f"{versus_approx.area_factor:.1f}x area, {versus_approx.power_factor:.1f}x power")

    self_power = result.self_power(0.01)
    if self_power is not None:
        print(f"\nwearable patch total (with {result.baseline.hardware.n_inputs} printed "
              f"sensors): {self_power.total_power_mw:.3f} mW of the "
              f"{self_power.harvester_budget_mw:.1f} mW harvester budget -> "
              f"{'self-powered' if self_power.is_self_powered else 'not self-powered'}")


if __name__ == "__main__":
    main()
