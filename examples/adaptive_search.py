"""Budgeted Pareto search vs. the exhaustive depth/tau grid on cardio.

The paper sweeps all 49 (depth, tau) combinations to find the
accuracy/power trade-off.  The adaptive-search subsystem
(:mod:`repro.search`) finds nearly the same Pareto front from a fraction
of the trainings.  This example quantifies that on cardio:

1. the exhaustive 49-point sweep and its front (the reference),
2. a budget sweep -- studies at increasing trial budgets, each against a
   throwaway store so the trained-tree count is honest -- reporting the
   hypervolume each budget recovers,
3. a side-by-side comparison of the exhaustive front and the largest
   budget's front.

Run with::

    python examples/adaptive_search.py            # serial
    REPRO_EXAMPLE_JOBS=4 python examples/adaptive_search.py

Everything is seeded: rerunning prints identical numbers.  The exhaustive
sweep caches in the default result store, so only the first run pays for
it; the studies deliberately run without a store (``store=None``).
"""

import os

from repro.analysis.experiments import run_benchmark_suite
from repro.analysis.render import render_table
from repro.core.store import ResultStore
from repro.search import Study, hypervolume

DATASET = "cardio"
SEED = 0
BUDGETS = (6, 9, 12, 18)
GRID_SIZE = 49


def reference_point(fronts):
    """A point weakly worse than every front point on every axis."""
    axes = zip(*[point for front in fronts for point in front])
    return tuple(max(axis) + 0.05 * (abs(max(axis)) + 1.0) for axis in axes)


def main() -> None:
    jobs = int(os.environ.get("REPRO_EXAMPLE_JOBS", "1"))

    print(f"exhaustive sweep: {GRID_SIZE} (depth, tau) trainings on {DATASET} ...")
    [suite] = run_benchmark_suite(
        datasets=(DATASET,),
        seed=SEED,
        include_approximate_baseline=False,
        jobs=jobs,
        store=ResultStore(),
    )
    grid_objectives = [
        (-point.accuracy, point.hardware.total_power_uw)
        for point in suite.exploration
    ]

    print(f"budget sweep: studies at budgets {BUDGETS}, every trial trained\n")
    studies = [
        Study(
            DATASET,
            objectives=("-accuracy", "power"),
            seed=SEED,
            store=None,
            batch_size=3,
        ).run(budget=budget, jobs=jobs)
        for budget in BUDGETS
    ]

    study_fronts = [
        [trial.objectives for trial in study.front] for study in studies
    ]
    reference = reference_point([grid_objectives, *study_fronts])
    grid_hv = hypervolume(grid_objectives, reference)

    print("hypervolume recovered per budget (1.0 = the exhaustive front):")
    print(render_table(
        ["budget", "trained trees", "vs grid", "front size", "hv ratio"],
        [
            (
                budget,
                study.n_trained,
                f"{GRID_SIZE / study.n_trained:.1f}x fewer",
                len(study.front_numbers),
                hypervolume(front, reference) / grid_hv,
            )
            for budget, study, front in zip(BUDGETS, studies, study_fronts)
        ],
    ))

    best = studies[-1]

    def front_rows(points):
        return [
            (p.depth, p.tau, p.accuracy * 100.0,
             p.hardware.total_power_uw, p.hardware.total_area_mm2)
            for p in points
        ]

    exhaustive_front = sorted(
        (
            point
            for point in suite.exploration
            if not any(
                other.accuracy >= point.accuracy
                and other.hardware.total_power_uw < point.hardware.total_power_uw
                for other in suite.exploration
            )
        ),
        key=lambda p: p.hardware.total_power_uw,
    )
    columns = ["depth", "tau", "accuracy (%)", "power (uW)", "area (mm2)"]
    print(f"\nexhaustive front ({GRID_SIZE} trainings):")
    print(render_table(columns, front_rows(exhaustive_front)))

    print(f"\nbudget-{BUDGETS[-1]} study front ({best.n_trained} trainings):")
    print(render_table(
        columns,
        [
            (t.config["depth"], t.config["tau"], t.accuracy * 100.0,
             t.power_uw, t.area_mm2)
            for t in sorted(best.front, key=lambda t: t.power_uw)
        ],
    ))


if __name__ == "__main__":
    main()
