"""Map and render the multi-sigma robustness surface of one benchmark.

The paper's variation analysis (Sec. V) quotes accuracy drops at a single
comparator-offset sigma.  The surface sweep generalizes that to the full
(sigma x depth x tau) cube: one Monte-Carlo variation analysis per cell,
every cell resolved through the shared content-addressed result store --
the exact entries a sharded ``suite --sigma 0.01 0.02 0.04`` run computes
and a ``mean_accuracy_drop`` search study warm-starts from.

This example:

1. plans the multi-sigma work units and shows how they split over shards,
2. computes the surface on a small grid (warm runs are pure cache hits),
3. re-resolves it in strict ``cache_only`` mode -- the assemble-time
   discipline that proves zero recomputation,
4. renders the text table, the per-sigma aggregates, and the
   self-contained SVG heatmap dashboard.

Run with::

    python examples/robustness_surface.py            # serial
    REPRO_EXAMPLE_JOBS=4 python examples/robustness_surface.py

Everything is seeded: rerunning prints identical numbers, and the second
run resolves every cell from the on-disk store.
"""

import os
import tempfile
from pathlib import Path

from repro.analysis.experiments import run_robustness_surface
from repro.analysis.tables import robustness_surface_summary
from repro.core.sharding import ShardSpec, plan_suite_units
from repro.core.store import ResultStore
from repro.search import render_surface

DATASET = "vertebral_2c"
SIGMAS = (0.01, 0.02, 0.04)
DEPTHS = (2, 3, 4, 5)
TAUS = (0.0, 0.01, 0.02)
TRIALS = 50
SEED = 0


def main() -> None:
    jobs = int(os.environ.get("REPRO_EXAMPLE_JOBS", "1"))
    store = ResultStore(cache_dir=Path(tempfile.gettempdir()) / "repro-surface-example")

    plan = plan_suite_units(
        datasets=(DATASET,), sigmas=SIGMAS, n_trials=TRIALS,
        depths=DEPTHS, taus=TAUS,
    )
    per_shard = [len(plan.shard(ShardSpec(index, 3))) for index in (1, 2, 3)]
    print(
        f"plan: {len(plan.units)} work units "
        f"({len(SIGMAS)} sigmas x {len(DEPTHS)}x{len(TAUS)} grid + "
        f"{len(DEPTHS)}x{len(TAUS)} points + 2 suite); "
        f"a 3-shard split takes {per_shard} units each\n"
    )

    surface = run_robustness_surface(
        DATASET, SIGMAS, n_trials=TRIALS, seed=SEED,
        depths=DEPTHS, taus=TAUS, jobs=jobs, store=store,
    )

    # The strict assemble discipline: resolve the whole surface again
    # without permission to compute anything.
    replay = run_robustness_surface(
        DATASET, SIGMAS, n_trials=TRIALS, seed=SEED,
        depths=DEPTHS, taus=TAUS, store=store, cache_only=True,
    )
    assert replay == surface
    print("cache-only replay: identical surface, zero recomputation\n")

    print(
        f"robustness surface of {DATASET} "
        f"(baseline accuracy {surface.baseline_accuracy * 100:.2f}%):"
    )
    for entry in robustness_surface_summary(surface)["per_sigma"]:
        print(
            f"  sigma {entry['sigma_v'] * 1000:g} mV: "
            f"avg mean drop {entry['average_mean_accuracy_drop_pct']:.2f}%, "
            f"max worst-case drop {entry['max_worst_case_drop_pct']:.2f}%"
        )

    worst = max(surface.cells, key=lambda cell: cell.mean_accuracy_drop)
    best = min(surface.cells, key=lambda cell: cell.mean_accuracy_drop)
    print(
        f"\nmost fragile cell:  d={worst.depth}, tau={worst.tau:g} at "
        f"{worst.sigma_v * 1000:g} mV ({worst.mean_accuracy_drop * 100:.2f}% mean drop)"
    )
    print(
        f"most robust cell:   d={best.depth}, tau={best.tau:g} at "
        f"{best.sigma_v * 1000:g} mV ({best.mean_accuracy_drop * 100:.2f}% mean drop)"
    )

    html = Path(tempfile.gettempdir()) / "repro_surface_example.html"
    html.write_text(render_surface(surface.to_json_dict()), encoding="utf-8")
    print(f"\nwrote the SVG heatmap dashboard to {html}")


if __name__ == "__main__":
    main()
