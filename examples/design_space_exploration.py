"""Design-space exploration: accuracy vs hardware across depth and tau.

Reproduces, for a single benchmark (cardio), the exploration of Section IV:
every (depth, tau) combination is trained with the ADC-aware trainer, costed
with the bespoke-ADC unary architecture, and the accuracy/power trade-off is
reported -- including the designs selected under the paper's 0 % / 1 % / 5 %
accuracy-loss constraints and the accuracy-power Pareto front.

Run with::

    python examples/design_space_exploration.py          # serial sweep
    REPRO_EXAMPLE_JOBS=4 python examples/design_space_exploration.py

The sweep is the suite run of one benchmark: its 49 trainings are
independent, so with ``REPRO_EXAMPLE_JOBS`` set they fan out over a process
pool and produce bit-identical points.  Every point lands in the result
store (``$REPRO_CACHE_DIR`` or ``~/.cache/repro/results``), so a second run
trains nothing.
"""

import os

from repro.analysis import run_benchmark_suite
from repro.analysis.render import render_table
from repro.core.pareto import accuracy_power_front
from repro.core.store import ResultStore


def main() -> None:
    jobs = int(os.environ.get("REPRO_EXAMPLE_JOBS", "1"))
    (result,) = run_benchmark_suite(
        ("cardio",), include_approximate_baseline=False, jobs=jobs,
        store=ResultStore(),
    )
    baseline = result.baseline
    print(f"baseline (ADC-unaware) accuracy: {baseline.accuracy * 100:.1f}% "
          f"at depth {baseline.depth}")
    points = result.exploration
    print(f"explored {len(points)} (depth, tau) combinations "
          f"({jobs} worker{'s' if jobs > 1 else ''})\n")

    front = sorted(accuracy_power_front(points), key=lambda p: p.hardware.total_power_uw)
    print("accuracy-power Pareto front:")
    print(render_table(
        ["depth", "tau", "accuracy (%)", "ADC comparators", "area (mm2)", "power (mW)"],
        [
            (p.depth, p.tau, p.accuracy * 100.0, p.hardware.n_adc_comparators,
             p.hardware.total_area_mm2, p.hardware.total_power_uw / 1000.0)
            for p in front
        ],
    ))

    print("\nselected designs per accuracy-loss constraint:")
    rows = []
    for loss in (0.0, 0.01, 0.05):
        chosen = result.selected.get(loss)
        if chosen is None:
            rows.append((f"<= {loss:.0%}", "-", "-", "-", "-", "-"))
            continue
        rows.append((
            f"<= {loss:.0%}", chosen.depth, chosen.tau, chosen.accuracy * 100.0,
            chosen.hardware.total_area_mm2, chosen.hardware.total_power_uw / 1000.0,
        ))
    print(render_table(
        ["accuracy loss", "depth", "tau", "accuracy (%)", "area (mm2)", "power (mW)"],
        rows,
    ))


if __name__ == "__main__":
    main()
