"""Walking the sigma x (depth, tau) accuracy/power/robustness frontier.

The nominal design-space exploration of the paper picks, per accuracy-loss
budget, the most power-efficient (depth, tau) combination.  Printed
comparators, however, carry large random input offsets -- and the design
that wins nominally is often *not* the design that survives them best.

This example runs the variation-aware exploration at several offset sigmas
and shows how the constrained selection moves across the (depth, tau) grid
as the robustness budget tightens:

1. per sigma, the nominal winner vs the winner under a mean-accuracy-drop
   constraint (the offset-aware Table II selection), and
2. the accuracy / power / mean-drop frontier of the winning designs.

Every (sigma, depth, tau) Monte-Carlo summary is cached in the result store
under the same keys ``repro.cli variation`` and ``repro.cli explore`` use,
so re-runs (and the CLI) reuse the work.  Run with::

    python examples/robustness_frontier.py
"""

from repro.analysis.experiments import run_robust_exploration
from repro.analysis.render import render_table
from repro.core.store import ResultStore

DATASET = "seeds"
SIGMAS_V = (0.01, 0.02, 0.04)
N_TRIALS = 300
MAX_ACCURACY_LOSS = 0.01
DROP_BUDGETS = (None, 0.02, 0.01)


def main() -> None:
    store = ResultStore()  # $REPRO_CACHE_DIR or ~/.cache/repro/results
    explorations = [
        run_robust_exploration(
            DATASET, sigma_v=sigma, n_trials=N_TRIALS, seed=0, store=store
        )
        for sigma in SIGMAS_V
    ]
    baseline = explorations[0].baseline_accuracy
    print(
        f"variation-aware exploration of '{DATASET}' "
        f"({N_TRIALS} trials/point, baseline accuracy {baseline * 100:.2f}%, "
        f"accuracy loss <= {MAX_ACCURACY_LOSS:.0%})\n"
    )

    # ------------------------------------------------------------------ #
    # 1. how the selection moves as the robustness budget tightens
    # ------------------------------------------------------------------ #
    rows = []
    for exploration in explorations:
        for budget in DROP_BUDGETS:
            point = exploration.select(
                max_accuracy_loss=MAX_ACCURACY_LOSS, max_accuracy_drop=budget
            )
            label = "nominal" if budget is None else f"<= {budget:.0%}"
            if point is None:
                rows.append(
                    (exploration.sigma_v * 1000.0, label, "-", "-", "-", "-", "-")
                )
                continue
            rows.append(
                (
                    exploration.sigma_v * 1000.0,
                    label,
                    point.depth,
                    f"{point.tau:g}",
                    point.accuracy * 100.0,
                    point.mean_accuracy_drop * 100.0,
                    point.hardware.total_power_mw,
                )
            )
    print(render_table(
        ["sigma (mV)", "drop budget", "depth", "tau", "acc (%)",
         "mean drop (%)", "power (mW)"],
        rows,
    ))

    # ------------------------------------------------------------------ #
    # 2. the frontier: what robustness costs in power
    # ------------------------------------------------------------------ #
    print("\nrobustness premium (power of the constrained winner vs nominal):")
    premium_rows = []
    for exploration in explorations:
        nominal = exploration.select(max_accuracy_loss=MAX_ACCURACY_LOSS)
        robust = exploration.select(
            max_accuracy_loss=MAX_ACCURACY_LOSS, max_accuracy_drop=0.01
        )
        if nominal is None or robust is None:
            continue
        premium_rows.append(
            (
                exploration.sigma_v * 1000.0,
                nominal.hardware.total_power_mw,
                robust.hardware.total_power_mw,
                robust.hardware.total_power_mw / nominal.hardware.total_power_mw,
                nominal.mean_accuracy_drop * 100.0,
                robust.mean_accuracy_drop * 100.0,
            )
        )
    print(render_table(
        ["sigma (mV)", "nominal power (mW)", "robust power (mW)", "premium (x)",
         "nominal drop (%)", "robust drop (%)"],
        premium_rows,
    ))


if __name__ == "__main__":
    main()
