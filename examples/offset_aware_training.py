"""Nominal vs offset-aware training: robustness without the power premium.

``examples/robustness_frontier.py`` shows that buying robustness at *selection*
time costs power: under a mean-accuracy-drop budget the constrained winner is
usually a bigger design than the nominal winner.  Offset-aware *training*
attacks the same problem one layer deeper -- the trainer's split scores carry
the analytic expected digit-flip penalty, so thresholds land in sparse sample
regions and the very same (depth, tau) grid becomes inherently more
offset-tolerant.

This example runs the variation-aware exploration twice -- once with nominal
Gini training and once with ``training_sigma`` matched to the simulated offset
sigma -- and compares:

1. the mean accuracy drop of the two grids at matched (depth, tau), and
2. the constrained selection under a robustness budget: how often the
   offset-aware grid meets the budget with a *cheaper* design.

Both passes cache in the result store under training-parameter-aware keys, so
re-runs (and ``repro.cli explore --training-sigma``) reuse the work.  Run
with::

    python examples/offset_aware_training.py
"""

from repro.analysis.experiments import run_robust_exploration
from repro.analysis.render import render_table
from repro.core.store import ResultStore

DATASET = "seeds"
SIGMA_V = 0.04          # simulated comparator offset sigma (volts)
N_TRIALS = 300
MAX_ACCURACY_LOSS = 0.01
DROP_BUDGET = 0.01


def main() -> None:
    store = ResultStore()  # $REPRO_CACHE_DIR or ~/.cache/repro/results
    nominal = run_robust_exploration(
        DATASET, sigma_v=SIGMA_V, n_trials=N_TRIALS, seed=0, store=store
    )
    aware = run_robust_exploration(
        DATASET, sigma_v=SIGMA_V, n_trials=N_TRIALS, seed=0,
        training_sigma=SIGMA_V, store=store,
    )
    print(
        f"nominal vs offset-aware training on '{DATASET}' "
        f"(offset sigma {SIGMA_V * 1000:g} mV, {N_TRIALS} trials/point, "
        f"baseline accuracy {nominal.baseline_accuracy * 100:.2f}%)\n"
    )

    # ------------------------------------------------------------------ #
    # 1. matched (depth, tau): who tolerates the offsets better?
    # ------------------------------------------------------------------ #
    aware_by_grid = {(p.depth, p.tau): p for p in aware.points}
    rows = []
    wins = 0
    for point in nominal.points:
        twin = aware_by_grid[(point.depth, point.tau)]
        better = twin.mean_accuracy_drop < point.mean_accuracy_drop
        wins += better
        if point.depth not in (4, 6):  # keep the printed table digestible
            continue
        rows.append(
            (
                point.depth,
                f"{point.tau:g}",
                point.accuracy * 100.0,
                twin.accuracy * 100.0,
                point.mean_accuracy_drop * 100.0,
                twin.mean_accuracy_drop * 100.0,
                "aware" if better else "nominal",
            )
        )
    print(render_table(
        ["depth", "tau", "nom acc (%)", "aware acc (%)",
         "nom drop (%)", "aware drop (%)", "more robust"],
        rows,
    ))
    print(
        f"\noffset-aware training wins {wins}/{len(nominal.points)} "
        f"matched grid points on mean accuracy drop"
    )

    # ------------------------------------------------------------------ #
    # 2. constrained selection: the power premium, revisited
    # ------------------------------------------------------------------ #
    print(
        f"\nselection under accuracy loss <= {MAX_ACCURACY_LOSS:.0%} and "
        f"mean drop <= {DROP_BUDGET:.0%}:"
    )
    rows = []
    for label, exploration in (("nominal", nominal), ("offset-aware", aware)):
        point = exploration.select(
            max_accuracy_loss=MAX_ACCURACY_LOSS, max_accuracy_drop=DROP_BUDGET
        )
        if point is None:
            rows.append((label, "-", "-", "-", "-", "-"))
            continue
        rows.append(
            (
                label,
                point.depth,
                f"{point.tau:g}",
                point.accuracy * 100.0,
                point.mean_accuracy_drop * 100.0,
                point.hardware.total_power_mw,
            )
        )
    print(render_table(
        ["training", "depth", "tau", "acc (%)", "mean drop (%)", "power (mW)"],
        rows,
    ))


if __name__ == "__main__":
    main()
