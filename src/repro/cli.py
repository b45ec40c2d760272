"""Command-line interface: regenerate the paper's tables and figures.

Examples
--------
Regenerate Table I on the small benchmarks only::

    python -m repro.cli table1 --fast

Regenerate Fig. 3 (bespoke ADC scaling)::

    python -m repro.cli fig3

Run the full Table II comparison on two named benchmarks::

    python -m repro.cli table2 --datasets seeds vertebral_2c

Monte-Carlo comparator-offset robustness of a co-designed classifier
(vectorized across trials; ``--jobs`` fans trial batches over worker
processes with bit-identical results)::

    python -m repro.cli variation --dataset seeds --trials 1000 --jobs 4
    python -m repro.cli variation --dataset V3 --sigmas 0 0.01 0.02 0.04

Variation-aware design-space exploration: Monte-Carlo every (depth, tau)
point at an offset sigma and select the most power-efficient design under a
joint accuracy-loss / mean-accuracy-drop constraint (per-point robustness
summaries are cached in the result store under the same keys ``variation``
uses)::

    python -m repro.cli explore --sigma 0.04 --max-accuracy-drop 0.01
    python -m repro.cli explore --dataset cardio --sigma 0.02 --trials 500 --jobs 4

The offset-aware Table II variant re-selects every benchmark's co-design
under the robustness budget::

    python -m repro.cli table2 --sigma 0.04 --max-accuracy-drop 0.01

Offset-aware *training* (``--training-sigma``): the exploration trees are
trained with the analytic expected digit-flip penalty in their split scores,
so robustness comes from threshold placement instead of hardware margin::

    python -m repro.cli explore --sigma 0.04 --training-sigma 0.04
    python -m repro.cli table2 --sigma 0.04 --training-sigma 0.04 \
        --max-accuracy-drop 0.01

Budgeted multi-objective search: instead of sweeping the exhaustive
depth x tau grid, a seeded Pareto-TPE sampler spends a fixed trial budget,
warm-starting every trial it can from cached design points (see
``docs/SEARCH.md``)::

    python -m repro.cli search --dataset seeds --budget 12
    python -m repro.cli search --dataset cardio --budget 16 \
        --objective=-accuracy --objective area \
        --json study.json --html pareto.html
    python -m repro.cli search --dataset seeds --budget 12 --space wide \
        --sigma 0.02 --objective=-accuracy --objective power \
        --objective mean_accuracy_drop

Sharded suite execution: the work-unit planner splits the suite's
(dataset, variant) and per-(depth, tau) Monte-Carlo units across N shards
by stable hashing, each shard computes only its units into its own store,
and ``assemble`` merges the shard stores and renders every table from cache
hits *only* (non-zero exit listing the missing keys when a shard never
ran).  Local three-way example::

    python -m repro.cli suite --shard 1/3 --cache-dir shard1 --sigma 0.04
    python -m repro.cli suite --shard 2/3 --cache-dir shard2 --sigma 0.04
    python -m repro.cli suite --shard 3/3 --cache-dir shard3 --sigma 0.04
    python -m repro.cli assemble --cache-dir merged --sigma 0.04 \
        --from-store shard1 --from-store shard2 --from-store shard3 \
        --output-dir artifacts

On CI the shard stores travel as artifacts instead (``cache export`` /
``assemble --from-archive``); see ``docs/SHARDING.md``.

Multi-sigma robustness surface: ``--sigma`` takes one or more values on
``suite``/``assemble``/``table2``/``surface`` (one variation unit per
(dataset, depth, tau, sigma); unit identities are unchanged, so a multi-
sigma plan is the union of the per-sigma plans), and ``surface`` maps the
full (sigma x depth x tau) cube from the variation pool -- strictly from
cache hits with ``--cache-only``::

    python -m repro.cli suite --shard 1/3 --cache-dir shard1 \
        --sigma 0.01 0.02 0.04 --trials 200
    python -m repro.cli assemble --cache-dir merged \
        --sigma 0.01 0.02 0.04 --trials 200 --from-store shard1 ...
    python -m repro.cli surface --sigma 0.01 0.02 0.04 --trials 200 \
        --cache-dir merged --cache-only \
        --json surface.json --html surface.html

RTL co-simulation and pluggable PPA (see ``docs/HARDWARE.md``): ``cosim``
trains a classifier, exports its label logic plus a self-checking testbench
whose expected outputs come from the Python golden model, and runs the pair
under an installed open-source Verilog simulator (iverilog or Verilator;
generation-only on machines without one).  ``--ppa-backend`` on the suite,
``explore``, ``search`` and ``datasheet`` commands swaps the analytic
area/power estimators for an external flow's measured PPA report (such runs
bypass the result cache)::

    python -m repro.cli cosim --dataset seeds --depth 4 --json cosim.json
    python -m repro.cli cosim --dataset cardio --emit rtl/ --simulator iverilog
    python -m repro.cli explore --dataset seeds --sigma 0.02 \
        --ppa-backend reports/seeds_ppa.json
    python -m repro.cli datasheet --dataset seeds --ppa-backend report.json

Inspect or maintain the on-disk result store::

    python -m repro.cli cache stats
    python -m repro.cli cache stats --json     # machine-readable (CI)
    python -m repro.cli cache prune --older-than-days 14
    python -m repro.cli cache prune --max-bytes 500000000
    python -m repro.cli cache export --output store.tar.gz
    python -m repro.cli cache import store.tar.gz
    python -m repro.cli cache clear

Parallelism and caching
-----------------------
The suite commands (``table1``, ``fig4``, ``fig5``, ``table2``) accept
``--jobs`` and ``--cache-dir``:

* ``--jobs N`` fans the independent work units -- the per-benchmark runs
  and, for a single benchmark, the depth x tau design points -- out over
  ``N`` worker processes (``0`` = one per CPU).  Results are bit-identical
  to a serial run::

      python -m repro.cli table2 --jobs 8

* ``--cache-dir DIR`` points the content-addressed on-disk result store at
  ``DIR`` (default: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro/results``).
  Results are keyed by dataset, seed, grid, technology and code version, so
  any later invocation -- same process or not -- reuses them::

      python -m repro.cli table1 --cache-dir .repro-cache
      python -m repro.cli table2 --cache-dir .repro-cache   # reuses the sweep

  ``--no-cache`` forces a full recomputation.

Running the CI checks locally
-----------------------------
The GitHub Actions pipeline (``.github/workflows/ci.yml``) runs, on every
push/PR::

    ruff check src tests benchmarks examples      # lint job
    PYTHONPATH=src python -m pytest -q -m "not slow" \
        --cov=repro --cov-fail-under=80           # tier-1 gate (coverage floor)

and nightly a matrix of shard jobs feeding an assemble job via artifacts,
plus the nightly-marked Monte-Carlo validation tests::

    PYTHONPATH=src python -m repro.cli suite --shard K/3 --jobs 4 \
        --sigma 0.04 --trials 200 --cache-dir .repro-cache   # per shard job
    PYTHONPATH=src python -m repro.cli cache export \
        --cache-dir .repro-cache --output shard-K.tar.gz
    PYTHONPATH=src python -m repro.cli assemble --sigma 0.04 --trials 200 \
        --cache-dir .repro-assembled --from-archive shard-1.tar.gz ... \
        --output-dir artifacts                               # assemble job
    PYTHONPATH=src python -m pytest -q -m nightly --run-nightly

See ``docs/TESTING.md`` for the test-layer taxonomy (unit / property /
oracle-equivalence / golden CLI) and the marker conventions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.figures import fig3_series, fig4_series, fig5_series
from repro.analysis.render import render_table
from repro.analysis.experiments import (
    run_benchmark_suite,
    run_plan_shard,
    run_robust_exploration,
    run_variation_analysis,
)
from repro.analysis.tables import (
    exploration_rows,
    table1_rows,
    table1_summary,
    table2_robust_rows,
    table2_robust_summary,
    table2_rows,
    table2_summary,
)
from repro.core.sharding import (
    MissingResultsError,
    ShardSpec,
    normalize_sigmas,
    plan_suite_units,
)
from repro.circuits.cosim import SIMULATORS
from repro.core.store import ResultStore
from repro.datasets.registry import dataset_names, load_dataset
from repro.search.space import space_names


def _ranged(cast, message: str, strict: bool = False):
    """An argparse ``type``: ``cast`` the value and reject it below zero.

    ``strict`` rejects zero too.  Out-of-range values are usage errors
    (``argument --flag: must be ...``, exit 2) instead of library
    tracebacks.
    """

    def parse(value: str):
        number = cast(value)
        if not (number > 0 if strict else number >= 0):
            raise argparse.ArgumentTypeError(message)
        return number

    # argparse names the type in "invalid <name> value" for malformed input.
    parse.__name__ = cast.__name__
    return parse


_positive_int = _ranged(int, "must be a positive integer", strict=True)
_non_negative_int = _ranged(int, "must be a non-negative integer")
_positive_number = _ranged(float, "must be a positive number", strict=True)
_non_negative_number = _ranged(float, "must be a non-negative number")
_sigma = _ranged(float, "must be a non-negative sigma in volts")
_jobs = _ranged(int, "must be >= 0 (0 = one worker per CPU)")


def _test_size_argument(value: str) -> float:
    fraction = float(value)
    if not 0.0 < fraction < 1.0:
        raise argparse.ArgumentTypeError("must be a fraction strictly between 0 and 1")
    return fraction


def _shard_argument(value: str) -> ShardSpec:
    try:
        return ShardSpec.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _training_label(training_sigma: float) -> str:
    """Header fragment naming the training mode (shared by explore/table2)."""
    if training_sigma == 0:
        return "nominal training"
    return f"offset-aware training at {training_sigma * 1000:g} mV"


_DATASETS = tuple(dataset_names())

#: Flags several commands share, each declared once as its ``add_argument``
#: keywords.  :func:`_add` puts them on a command, with that command's own
#: keywords (a default, ``required``, a help text) on top.
_FLAGS: dict[str, dict] = {
    "--dataset": dict(required=True, choices=_DATASETS, help="benchmark to use"),
    "--datasets": dict(
        nargs="*", default=None, choices=_DATASETS,
        help="benchmarks to run (default: all eight)",
    ),
    "--fast": dict(
        action="store_true",
        help="restrict the default dataset list to the four small benchmarks",
    ),
    "--depth": dict(type=_positive_int, help="tree depth"),
    "--tau": dict(type=_non_negative_number, default=0.01, help="Gini tolerance"),
    "--seed": dict(type=_non_negative_int, default=0, help="global seed"),
    "--sigma": dict(
        type=_sigma, nargs="+", default=None, metavar="SIGMA",
        help="comparator offset sigmas in volts (one or more; order and "
        "duplicates never change the result)",
    ),
    "--trials": dict(
        type=_positive_int, default=100,
        help="Monte-Carlo trials per design point (with --sigma)",
    ),
    "--training-sigma": dict(
        type=_sigma, default=0.0,
        help="comparator offset sigma in volts the trainer assumes: split "
        "scores carry the analytic expected digit-flip penalty at this sigma "
        "(default: 0, nominal training)",
    ),
    "--robustness-weight": dict(
        type=_non_negative_number, default=1.0,
        help="weight of the expected-flip penalty during training "
        "(active only with --training-sigma > 0)",
    ),
    "--max-accuracy-drop": dict(
        type=_non_negative_number, default=0.01,
        help="maximum allowed mean accuracy drop under offsets "
        "(with --sigma; default 1%%)",
    ),
    "--jobs": dict(
        type=_jobs, default=None,
        help="worker processes (default: serial; 0 = one per CPU); results "
        "are identical to a serial run",
    ),
    "--cache-dir": dict(
        default=None,
        help="directory of the on-disk result store "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro/results)",
    ),
    "--no-cache": dict(
        action="store_true", help="bypass the result store and recompute everything"
    ),
    "--cache-only": dict(
        action="store_true",
        help="strict assemble mode: resolve everything from the store, never "
        "compute (exit 1 with the missing unit keys listed)",
    ),
    "--ppa-backend": dict(
        default=None, metavar="analytic|REPORT.json",
        help="source of the digital area/power numbers: 'analytic' (default, "
        "the behavioral cell-count model) or the path of an external-flow "
        "PPA report JSON (see docs/HARDWARE.md); report-backed runs bypass "
        "the result cache",
    ),
    "--json": dict(default=None, help="write the JSON report to this file"),
    "--html": dict(
        default=None, metavar="FILE", help="write the self-contained HTML dashboard here"
    ),
    "--registry-dir": dict(
        default=None,
        help="model registry directory "
        "(default: $REPRO_REGISTRY_DIR or ~/.cache/repro/registry)",
    ),
}

#: ``--json`` of the commands that print JSON instead of writing a file.
_JSON_SWITCH = dict(action="store_true", default=False,
                    help="emit machine-readable JSON instead of the human rendering")

#: The flags of the suite commands (table1, fig4, fig5, table2, surface).
_SUITE_FLAGS = (
    "--datasets", "--seed", "--fast", "--jobs", "--cache-dir", "--no-cache",
    "--ppa-backend",
)


def _add(parser: argparse.ArgumentParser, *flags: str, **own: dict) -> None:
    """Declare the shared ``flags`` on ``parser``.

    ``own`` maps a flag's dest (``max_accuracy_drop`` for
    ``--max-accuracy-drop``) to the keywords that differ for this command.
    """
    for flag in flags:
        keywords = {**_FLAGS[flag], **own.get(flag[2:].replace("-", "_"), {})}
        parser.add_argument(flag, **keywords)


def _store(args: argparse.Namespace) -> ResultStore | None:
    """The result store a command uses: ``--cache-dir``, none under ``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    return ResultStore(args.cache_dir or None)


def _write(path: str, text: str) -> None:
    """Write one output file a command was asked for, and say so."""
    Path(path).write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _suite(args: argparse.Namespace, include_approximate: bool):
    datasets = tuple(args.datasets) if args.datasets else None
    return run_benchmark_suite(
        datasets=datasets,
        seed=args.seed,
        include_approximate_baseline=include_approximate,
        fast=args.fast,
        jobs=args.jobs,
        store=_store(args),
        ppa_backend=args.ppa_backend,
    )


def _cmd_fig3(args: argparse.Namespace) -> int:
    series = fig3_series()
    rows = [
        (p["n_unary_digits"], p["start_level"], p["area_mm2"], p["power_uw"])
        for p in series["points"]
    ]
    print(render_table(["#UD", "first level", "area (mm2)", "power (uW)"], rows))
    print(
        f"\nConventional 4-bit flash ADC: "
        f"{series['conventional_area_mm2']:.2f} mm2, "
        f"{series['conventional_power_uw'] / 1000.0:.2f} mW"
    )
    return 0


def _render_table1(results) -> str:
    """Table I as printed by ``table1`` (shared verbatim with ``assemble``)."""
    rows = table1_rows(results)
    summary = table1_summary(rows)
    return "\n".join(
        [
            render_table(
                ["dataset", "acc (%)", "#comp", "#inputs", "ADC area", "total area",
                 "ADC power (mW)", "total power (mW)"],
                [
                    (r["dataset"], r["accuracy_pct"], r["n_comparators"], r["n_inputs"],
                     r["adc_area_mm2"], r["total_area_mm2"], r["adc_power_mw"],
                     r["total_power_mw"])
                    for r in rows
                ],
            ),
            f"\nAverages: total area {summary['average_total_area_mm2']:.1f} mm2, "
            f"total power {summary['average_total_power_mw']:.2f} mW, "
            f"ADC share {summary['average_adc_area_fraction'] * 100:.0f}% of area / "
            f"{summary['average_adc_power_fraction'] * 100:.0f}% of power",
        ]
    )


def _render_fig4(results) -> str:
    """Fig. 4 as printed by ``fig4`` (shared verbatim with ``assemble``)."""
    series = fig4_series(results)
    return "\n".join(
        [
            render_table(
                ["dataset", "area reduction (x)", "power reduction (x)"],
                [
                    (r["abbreviation"], r["area_reduction_x"], r["power_reduction_x"])
                    for r in series["rows"]
                ],
            ),
            f"\nAverages: {series['average_area_reduction_x']:.1f}x area, "
            f"{series['average_power_reduction_x']:.1f}x power",
        ]
    )


def _render_fig5(results) -> str:
    """Fig. 5 as printed by ``fig5`` (shared verbatim with ``assemble``)."""
    parts: list[str] = []
    for loss, panel in fig5_series(results).items():
        parts.append(f"\n=== accuracy loss <= {loss:.0%} ===")
        parts.append(
            render_table(
                ["dataset", "area reduction (%)", "power reduction (%)"],
                [
                    (r["abbreviation"], r["area_reduction_pct"], r["power_reduction_pct"])
                    for r in panel["rows"]
                ],
            )
        )
        parts.append(
            f"Averages: {panel['average_area_reduction_pct']:.1f}% area, "
            f"{panel['average_power_reduction_pct']:.1f}% power"
        )
    return "\n".join(parts)


def _cmd_table1(args: argparse.Namespace) -> int:
    print(_render_table1(_suite(args, include_approximate=False)))
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    print(_render_fig4(_suite(args, include_approximate=False)))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    print(_render_fig5(_suite(args, include_approximate=False)))
    return 0


def _render_table2_robust(
    explorations,
    sigma: float,
    trials: int,
    training_sigma: float,
    max_accuracy_drop: float | None,
) -> str:
    """Offset-aware Table II as printed by ``table2 --sigma`` / ``assemble``."""
    rows = table2_robust_rows(
        explorations, accuracy_loss=0.01, max_accuracy_drop=max_accuracy_drop
    )
    drop_label = (
        "unconstrained" if max_accuracy_drop is None
        else f"<= {max_accuracy_drop:.1%}"
    )
    summary = table2_robust_summary(rows)
    return "\n".join(
        [
            f"Offset-aware co-design selection (sigma {sigma * 1000:g} mV, "
            f"{trials} trials, {_training_label(training_sigma)}, "
            f"<= 1% accuracy loss, mean drop {drop_label})\n",
            render_table(
                ["dataset", "depth", "tau", "acc (%)", "mean drop (%)",
                 "worst drop (%)", "area (mm2)", "power (mW)"],
                [
                    (r["dataset"], r["depth"], r["tau"], r["accuracy_pct"],
                     r["mean_accuracy_drop_pct"], r["worst_case_drop_pct"],
                     r["area_mm2"], r["power_mw"])
                    if r["feasible"]
                    else (r["dataset"], "-", "-", "infeasible", "-", "-", "-", "-")
                    for r in rows
                ],
            ),
            f"\n{summary['n_feasible']}/{len(rows)} benchmarks feasible; "
            + (
                # Zero feasible rows: there is nothing to average -- say so
                # instead of printing a misleading 0.0.
                "averages: n/a (no feasible designs)"
                if summary["n_feasible"] == 0
                else f"averages: {summary['average_area_mm2']:.1f} mm2, "
                f"{summary['average_power_mw']:.2f} mW, "
                f"mean drop {summary['average_mean_accuracy_drop_pct']:.2f}%"
            ),
        ]
    )


def _cmd_table2_robust(args: argparse.Namespace) -> int:
    """Offset-aware Table II: per-benchmark selection under a robustness budget."""
    from repro.analysis.experiments import resolve_suite_datasets

    names = resolve_suite_datasets(
        tuple(args.datasets) if args.datasets else None, args.fast
    )
    store = _store(args)
    renders = []
    for sigma in normalize_sigmas(tuple(args.sigma)):
        explorations = [
            run_robust_exploration(
                name,
                sigma_v=sigma,
                n_trials=args.trials,
                seed=args.seed,
                jobs=args.jobs,
                store=store,
                training_sigma=args.training_sigma,
                ppa_backend=args.ppa_backend,
            )
            for name in names
        ]
        renders.append(
            _render_table2_robust(
                explorations, sigma, args.trials, args.training_sigma,
                args.max_accuracy_drop,
            )
        )
    print("\n\n".join(renders))
    return 0


def _render_table2(results) -> str:
    """Table II as printed by ``table2`` (shared verbatim with ``assemble``)."""
    rows = table2_rows(results)
    summary = table2_summary(rows)
    return "\n".join(
        [
            render_table(
                ["dataset", "acc (%)", "area (mm2)", "power (mW)",
                 "vs[2] area", "vs[2] power", "vs[7] area", "vs[7] power",
                 "self-powered"],
                [
                    (r["dataset"], r["accuracy_pct"], r["area_mm2"], r["power_mw"],
                     r["area_reduction_vs_baseline_x"],
                     r["power_reduction_vs_baseline_x"],
                     r["area_reduction_vs_approx_x"],
                     r["power_reduction_vs_approx_x"],
                     r["self_powered"])
                    for r in rows
                ],
            ),
            f"\nAverages: {summary['average_area_mm2']:.1f} mm2, "
            f"{summary['average_power_mw']:.2f} mW, "
            f"{summary['average_area_reduction_vs_baseline_x']:.1f}x area / "
            f"{summary['average_power_reduction_vs_baseline_x']:.1f}x power vs [2]",
        ]
    )


def _cmd_table2(args: argparse.Namespace) -> int:
    if args.sigma is not None:
        return _cmd_table2_robust(args)
    if args.training_sigma > 0:
        # Without --sigma there is no robustness pass to select against, so
        # offset-aware training would silently render the nominal table.
        print(
            "table2: --training-sigma requires --sigma (the offset-aware "
            "selection it trains for)",
            file=sys.stderr,
        )
        return 2
    print(_render_table2(_suite(args, include_approximate=True)))
    return 0


def _plan_from_args(args: argparse.Namespace):
    """The deterministic work-unit plan of a ``suite``/``assemble`` request.

    Both commands must agree on the plan for the same flags, so shard
    runners and the assemble step can never disagree about which units
    exist -- this is their single constructor.
    """
    return plan_suite_units(
        datasets=tuple(args.datasets) if args.datasets else None,
        seed=args.seed,
        fast=args.fast,
        sigmas=tuple(args.sigma) if args.sigma else None,
        n_trials=args.trials,
        training_sigma=args.training_sigma,
    )


def _cmd_suite(args: argparse.Namespace) -> int:
    """Compute one shard of the suite's work units into the result store."""
    plan = _plan_from_args(args)
    units = plan.shard(args.shard)
    counts = ", ".join(
        f"{sum(unit.kind == kind for unit in units)} {kind}"
        for kind in ("suite", "point", "variation")
    )
    print(
        f"plan: {len(plan.units)} work units over {len(plan.datasets)} "
        f"benchmarks; shard {args.shard}: {len(units)} units ({counts})"
    )
    if args.list_units:
        for unit in units:
            print(f"  {unit.label}  {unit.store_key[:16]}")
        return 0
    store = _store(args)
    report = run_plan_shard(plan, args.shard, jobs=args.jobs, store=store)
    print(
        f"shard {args.shard}: computed {report.computed}, reused "
        f"{report.reused} of {report.n_units} units -> {store.cache_dir}"
    )
    return 0


def _cmd_assemble(args: argparse.Namespace) -> int:
    """Merge shard stores and render every table from cache hits only."""
    store = _store(args)
    try:
        for archive in args.from_archive or []:
            report = store.import_archive(archive)
            print(
                f"imported {archive}: {report.merged} new entries, "
                f"{report.skipped} already present"
            )
        for directory in args.from_store or []:
            report = store.merge_from(ResultStore(directory))
            print(
                f"merged {directory}: {report.merged} new entries, "
                f"{report.skipped} already present"
            )
    except (OSError, ValueError) as exc:
        # A missing/unreadable shard artifact is a first-class assemble
        # failure: diagnose on stderr instead of crashing with a traceback.
        print(f"assemble: {exc}", file=sys.stderr)
        return 2

    plan = _plan_from_args(args)
    missing = plan.missing(store)
    if missing:
        print(
            f"assemble: store {store.cache_dir} is missing {len(missing)} of "
            f"{len(plan.units)} planned units:",
            file=sys.stderr,
        )
        for unit in missing:
            print(f"  {unit.label}  {unit.store_key}", file=sys.stderr)
        print(
            "run the missing shards (repro.cli suite --shard K/N) and retry",
            file=sys.stderr,
        )
        return 1

    names = plan.datasets
    try:
        table1_results = run_benchmark_suite(
            datasets=names, seed=args.seed, include_approximate_baseline=False,
            store=store, cache_only=True, training_sigma=args.training_sigma,
        )
        table2_results = run_benchmark_suite(
            datasets=names, seed=args.seed, include_approximate_baseline=True,
            store=store, cache_only=True, training_sigma=args.training_sigma,
        )
    except MissingResultsError as exc:
        print(f"assemble: {exc}", file=sys.stderr)
        return 1

    sections = [
        ("table1.txt", _render_table1(table1_results)),
        ("fig4.txt", _render_fig4(table1_results)),
        ("fig5.txt", _render_fig5(table1_results)),
        ("table2.txt", _render_table2(table2_results)),
    ]
    for sigma in plan.sigmas:
        explorations = [
            run_robust_exploration(
                name, sigma_v=sigma, n_trials=args.trials, seed=args.seed,
                store=store, cache_only=True, training_sigma=args.training_sigma,
            )
            for name in names
        ]
        filename = (
            "table2_offset_aware.txt"
            if len(plan.sigmas) == 1
            else f"table2_offset_aware_{sigma * 1000:g}mV.txt"
        )
        sections.append(
            (
                filename,
                _render_table2_robust(
                    explorations, sigma, args.trials, args.training_sigma,
                    args.max_accuracy_drop,
                ),
            )
        )

    output_dir = Path(args.output_dir) if args.output_dir else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
    for filename, text in sections:
        print(f"==== {filename[:-4]} ====")
        print(text)
        if output_dir is not None:
            (output_dir / filename).write_text(text + "\n", encoding="utf-8")
    print(
        f"assembled {len(plan.units)} planned units from cache only: "
        f"{store.stats.hits} hits, {store.stats.misses} misses, 0 recomputed"
    )
    store.flush_stats()
    return 0


def _cmd_datasheet(args: argparse.Namespace) -> int:
    from repro.core.datasheet import generate_datasheet
    from repro.core.design import DesignSpec

    spec = DesignSpec(args.dataset, args.seed, args.depth, args.tau)
    data = spec.data()
    print(
        generate_datasheet(
            spec.train(),
            name=f"{spec.dataset} classifier (depth {args.depth}, tau {args.tau:g})",
            feature_names=data.dataset.feature_names,
            class_names=data.dataset.class_names,
            X_test=data.X_test,
            y_test=data.y_test,
            ppa_backend=args.ppa_backend,
        )
    )
    return 0


def _cosim_netlist(args: argparse.Namespace):
    """Train the requested classifier and compile its label-logic netlist."""
    from repro.core.design import DesignSpec
    from repro.core.unary_tree import UnaryDecisionTree

    tree = DesignSpec(args.dataset, args.seed, args.depth, args.tau).train()
    return UnaryDecisionTree(tree).to_netlist(f"{args.dataset}_label_logic")


def _cmd_cosim(args: argparse.Namespace) -> int:
    """RTL co-simulation of the exported label logic vs the golden model."""
    from repro.circuits.cosim import (
        DEFAULT_RANDOM_VECTORS,
        CosimError,
        find_simulator,
        run_cosim,
        write_cosim_sources,
    )

    netlist = _cosim_netlist(args)
    n_random = args.vectors if args.vectors is not None else DEFAULT_RANDOM_VECTORS
    print(
        f"cosim: {args.dataset} (depth {args.depth}, tau {args.tau:g}, "
        f"seed {args.seed}) -> module {netlist.name!r}, "
        f"{len(netlist.inputs)} inputs, {len(netlist.outputs)} outputs"
    )
    if args.emit:
        dut_path, tb_path, n_vectors, exhaustive = write_cosim_sources(
            netlist, args.emit, seed=args.seed, n_random=n_random
        )
        drive = "exhaustive" if exhaustive else "random"
        print(
            f"wrote {dut_path} and {tb_path} ({n_vectors} {drive} vectors)"
        )
    simulator = find_simulator(args.simulator)
    if simulator is None:
        if args.simulator != "auto":
            print(
                f"cosim: simulator {args.simulator!r} is not installed",
                file=sys.stderr,
            )
            return 2
        # Generation-only degradation: bare containers can still produce and
        # inspect the sources; CI's nightly job installs iverilog to run them.
        message = (
            "no Verilog simulator installed (looked for: "
            + ", ".join(SIMULATORS)
            + "); generation-only run, no simulation performed"
        )
        print(f"cosim: {message}")
        if args.json:
            payload = {
                "schema_version": 1,
                "kind": "cosim_report",
                "module": netlist.name,
                "skipped": True,
                "reason": message,
            }
            _write(args.json, json.dumps(payload, indent=2) + "\n")
        return 0
    try:
        report = run_cosim(
            netlist, simulator=simulator, seed=args.seed, n_random=n_random
        )
    except CosimError as exc:
        print(f"cosim: {exc}", file=sys.stderr)
        return 2
    drive = "exhaustive" if report.exhaustive else "random"
    verdict = "PASSED" if report.passed else "FAILED"
    print(
        f"{verdict}: {report.n_vectors} {drive} vectors under "
        f"{report.simulator}, {report.n_mismatches} mismatches "
        f"(exit {report.returncode})"
    )
    if not report.passed and report.log:
        print(report.log, file=sys.stderr)
    if args.json:
        payload = report.to_json_dict()
        payload["skipped"] = False
        _write(args.json, json.dumps(payload, indent=2) + "\n")
    return 0 if report.passed else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    exploration = run_robust_exploration(
        args.dataset,
        sigma_v=args.sigma,
        n_trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
        store=_store(args),
        training_sigma=args.training_sigma,
        ppa_backend=args.ppa_backend,
    )
    rows = exploration_rows(exploration.points)
    print(
        f"Variation-aware design-space exploration of {exploration.dataset} "
        f"(sigma {exploration.sigma_v * 1000:g} mV, {exploration.n_trials} "
        f"trials/point, {_training_label(exploration.training_sigma)}, "
        f"seed {args.seed}; baseline accuracy "
        f"{exploration.baseline_accuracy * 100:.2f}%)\n"
    )
    print(
        render_table(
            ["depth", "tau", "acc (%)", "mean drop (%)", "worst drop (%)",
             "area (mm2)", "power (mW)"],
            [
                (r["depth"], r["tau"], r["accuracy_pct"],
                 r["mean_accuracy_drop_pct"], r["worst_case_drop_pct"],
                 r["area_mm2"], r["power_mw"])
                for r in rows
            ],
        )
    )
    selected = exploration.select(
        max_accuracy_loss=args.max_accuracy_loss,
        max_accuracy_drop=args.max_accuracy_drop,
        objective=args.objective,
    )
    drop_label = (
        "unconstrained" if args.max_accuracy_drop is None
        else f"<= {args.max_accuracy_drop:.1%}"
    )
    print(
        f"\nconstraints: accuracy loss <= {args.max_accuracy_loss:.1%}, "
        f"mean accuracy drop {drop_label}, objective {args.objective}"
    )
    if selected is None:
        print("selected: none (no design point satisfies the constraints)")
    else:
        print(
            f"selected: depth {selected.depth}, tau {selected.tau:g} -- "
            f"accuracy {selected.accuracy * 100:.2f}%, "
            f"mean drop {selected.mean_accuracy_drop * 100:.2f}%, "
            f"worst drop {selected.worst_case_drop * 100:.2f}%, "
            f"{selected.hardware.total_power_mw:.3f} mW, "
            f"{selected.hardware.total_area_mm2:.1f} mm2"
        )
    if args.json:
        from repro.analysis.export import robust_exploration_to_json

        path = robust_exploration_to_json(
            exploration, args.json, max_accuracy_loss=args.max_accuracy_loss,
            max_accuracy_drop=args.max_accuracy_drop, objective=args.objective,
        )
        print(f"wrote {path}")
    return 0


def _cmd_variation(args: argparse.Namespace) -> int:
    sigmas = tuple(args.sigmas) if args.sigmas else (0.0, 0.005, 0.01, 0.02, 0.04)
    store = _store(args)
    rows = []
    for sigma_v in sigmas:
        analysis = run_variation_analysis(
            args.dataset,
            sigma_v=sigma_v,
            n_trials=args.trials,
            seed=args.seed,
            depth=args.depth,
            tau=args.tau,
            jobs=args.jobs,
            store=store,
            resolution_bits=args.resolution_bits,
            test_size=args.test_size,
            training_sigma=args.training_sigma,
            robustness_weight=args.robustness_weight,
        )
        rows.append(
            (
                analysis.sigma_v * 1000.0,
                analysis.nominal_accuracy * 100.0,
                analysis.mean_accuracy * 100.0,
                analysis.std_accuracy * 100.0,
                analysis.min_accuracy * 100.0,
                analysis.mean_accuracy_drop * 100.0,
            )
        )
    training = (
        "" if args.training_sigma == 0
        else f", {_training_label(args.training_sigma)}"
    )
    print(
        f"Monte-Carlo comparator-offset robustness of {args.dataset} "
        f"(depth {args.depth}, tau {args.tau:g}, {args.trials} trials, "
        f"seed {args.seed}{training})\n"
    )
    print(
        render_table(
            ["sigma (mV)", "nominal acc (%)", "mean acc (%)", "std (%)",
             "worst acc (%)", "mean drop (%)"],
            rows,
        )
    )
    return 0


def _render_surface_text(surface) -> str:
    """One surface as printed by ``surface`` (text heatmap + per-sigma summary)."""
    from repro.analysis.tables import (
        robustness_surface_rows,
        robustness_surface_summary,
    )

    rows = robustness_surface_rows(surface)
    summary = robustness_surface_summary(surface)
    headers = ["depth", "tau", "nominal acc (%)"] + [
        f"drop@{sigma * 1000:g}mV (%)" for sigma in surface.sigmas
    ]
    summary_lines = "\n".join(
        f"  sigma {entry['sigma_v'] * 1000:g} mV: "
        f"avg mean drop {entry['average_mean_accuracy_drop_pct']:.2f}%, "
        f"max mean drop {entry['max_mean_accuracy_drop_pct']:.2f}%, "
        f"max worst-case drop {entry['max_worst_case_drop_pct']:.2f}%"
        for entry in summary["per_sigma"]
    )
    return "\n".join(
        [
            f"Robustness surface of {surface.dataset} "
            f"({len(surface.sigmas)} sigmas x {len(surface.depths)} depths x "
            f"{len(surface.taus)} taus, {surface.n_trials} trials/point, "
            f"{_training_label(surface.training_sigma)}, seed {surface.seed}; "
            f"baseline accuracy {surface.baseline_accuracy * 100:.2f}%)\n",
            render_table(
                headers,
                [
                    (r["depth"], r["tau"], r["nominal_accuracy_pct"],
                     *r["mean_drop_pct_by_sigma"])
                    for r in rows
                ],
            ),
            "\nper-sigma summary:",
            summary_lines,
        ]
    )


def _cmd_surface(args: argparse.Namespace) -> int:
    """Render the (sigma x depth x tau) robustness surface per benchmark."""
    from repro.analysis.experiments import (
        resolve_suite_datasets,
        run_robustness_surface,
    )

    names = resolve_suite_datasets(
        tuple(args.datasets) if args.datasets else None, args.fast
    )
    store = _store(args)
    surfaces = []
    try:
        for name in names:
            surfaces.append(
                run_robustness_surface(
                    name,
                    tuple(args.sigma),
                    n_trials=args.trials,
                    seed=args.seed,
                    jobs=args.jobs,
                    store=store,
                    training_sigma=args.training_sigma,
                    cache_only=args.cache_only,
                    ppa_backend=args.ppa_backend,
                )
            )
    except MissingResultsError as exc:
        print(f"surface: {exc}", file=sys.stderr)
        print(
            "run the missing shards (repro.cli suite --shard K/N --sigma ...) "
            "and retry",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        # Incompatible flags (e.g. --cache-only with a report PPA backend).
        print(f"surface: {exc}", file=sys.stderr)
        return 2
    print("\n\n".join(_render_surface_text(surface) for surface in surfaces))
    if args.json:
        from repro.analysis.export import robustness_surface_to_json

        path = robustness_surface_to_json(surfaces, args.json)
        print(f"wrote {path}")
    if args.html:
        from repro.search import render_surface

        _write(args.html, render_surface([surface.to_json_dict() for surface in surfaces]))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    """Budgeted multi-objective search (see ``docs/SEARCH.md``)."""
    from repro.analysis.experiments import run_search_study
    from repro.search import render_dashboard

    objectives = tuple(args.objective) if args.objective else ("-accuracy", "power")
    try:
        result = run_search_study(
            args.dataset,
            budget=args.budget,
            objectives=objectives,
            seed=args.seed,
            space=args.space,
            sigma_v=args.sigma,
            variation_trials=args.trials,
            jobs=args.jobs,
            store=_store(args),
            batch_size=args.batch_size,
            cache_only=args.cache_only,
            ppa_backend=args.ppa_backend,
        )
    except MissingResultsError as exc:
        # --cache-only: a trial would have had to train.  Same discipline
        # (and exit code) as an assemble over an incomplete store.
        print(f"search: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Bad objective spellings / incompatible flags (e.g. the
        # mean_accuracy_drop objective without --sigma) are usage errors.
        print(f"search: {exc}", file=sys.stderr)
        return 2
    front_numbers = set(result.front_numbers)
    print(
        f"Budgeted search of {result.dataset} ({args.space} space, budget "
        f"{result.budget}, seed {result.seed}, objectives "
        f"{', '.join(result.objectives)}): {len(result.trials)} trials, "
        f"{result.n_from_cache} from cache / {result.n_trained} trained, "
        f"{len(result.front_numbers)} on the front\n"
    )
    print(
        render_table(
            ["#", "depth", "tau", "acc (%)", "power (uW)", "area (mm2)",
             "mean drop (%)", "source", "front"],
            [
                (
                    trial.number,
                    trial.config["depth"],
                    trial.config["tau"],
                    trial.accuracy * 100.0,
                    trial.power_uw,
                    trial.area_mm2,
                    "-" if trial.mean_accuracy_drop is None
                    else trial.mean_accuracy_drop * 100.0,
                    "cache" if trial.from_cache else "trained",
                    "*" if trial.number in front_numbers else "",
                )
                for trial in result.trials
            ],
        )
    )
    if args.json:
        _write(args.json, result.to_json() + "\n")
    if args.html:
        _write(args.html, render_dashboard(result.to_json_dict()))
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    store = _store(args)
    disk = store.disk_stats()
    lifetime = store.lifetime_stats()
    search = store.lifetime_search_stats()
    requests = lifetime["hits"] + lifetime["misses"]
    hit_rate = (lifetime["hits"] / requests * 100.0) if requests else 0.0
    n_search_trials = search["from_cache"] + search["trained"]
    if args.json:
        # Machine-readable variant: CI steps assert on hit/miss counts by
        # parsing this instead of grepping the human rendering.  The
        # "search" section carries the study trial accounting the nightly
        # search job asserts its warm-start rate on.
        print(
            json.dumps(
                {
                    "store": str(store.cache_dir),
                    "entries": {
                        "n_entries": disk.n_entries,
                        "total_bytes": disk.total_bytes,
                        "oldest_age_s": disk.oldest_age_s,
                        "newest_age_s": disk.newest_age_s,
                    },
                    "lifetime": lifetime,
                    "hit_rate": (lifetime["hits"] / requests) if requests else None,
                    "search": {
                        "from_cache": search["from_cache"],
                        "trained": search["trained"],
                        "warm_start_rate": (
                            search["from_cache"] / n_search_trials
                            if n_search_trials
                            else None
                        ),
                    },
                },
                sort_keys=True,
            )
        )
        return 0
    print(f"store:     {store.cache_dir}")
    print(f"entries:   {disk.n_entries}  ({disk.total_bytes / 1e6:.2f} MB)")
    if disk.oldest_age_s is not None:
        print(
            f"age:       oldest {disk.oldest_age_s / 86400.0:.1f} d, "
            f"newest {disk.newest_age_s / 86400.0:.1f} d"
        )
    print(
        f"lifetime:  {lifetime['hits']} hits / {lifetime['misses']} misses "
        f"({hit_rate:.0f}% hit rate), {lifetime['stores']} stores"
    )
    if n_search_trials:
        print(
            f"search:    {search['from_cache']} trials from cache / "
            f"{search['trained']} trained "
            f"({search['from_cache'] / n_search_trials * 100.0:.0f}% warm-start)"
        )
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    store = _store(args)
    removed = store.clear()
    print(f"removed {removed} entries from {store.cache_dir}")
    return 0


def _cmd_cache_export(args: argparse.Namespace) -> int:
    store = _store(args)
    try:
        path = store.export_archive(args.output)
    except (OSError, ValueError) as exc:
        print(f"cache export: {exc}", file=sys.stderr)
        return 2
    disk = store.disk_stats()
    print(
        f"exported {disk.n_entries} entries ({disk.total_bytes / 1e6:.2f} MB) "
        f"from {store.cache_dir} to {path}"
    )
    return 0


def _cmd_cache_import(args: argparse.Namespace) -> int:
    store = _store(args)
    for archive in args.archives:
        try:
            report = store.import_archive(archive)
        except (OSError, ValueError) as exc:
            print(f"cache import: {exc}", file=sys.stderr)
            return 2
        print(
            f"imported {archive}: {report.merged} new entries, "
            f"{report.skipped} already present"
        )
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    if args.older_than_days is None and args.max_bytes is None:
        print("cache prune: pass --older-than-days and/or --max-bytes", file=sys.stderr)
        return 2
    store = _store(args)
    if args.older_than_days is not None:
        removed = store.prune_older_than(args.older_than_days * 86400.0)
        print(
            f"pruned {removed} entries older than {args.older_than_days:g} days "
            f"from {store.cache_dir}"
        )
    if args.max_bytes is not None:
        removed = store.prune_to_size(args.max_bytes)
        total = store.disk_stats().total_bytes
        print(
            f"evicted {removed} least-recently-used entries from {store.cache_dir} "
            f"({total / 1e6:.2f} MB <= {args.max_bytes / 1e6:.2f} MB budget)"
        )
    return 0


def _registry(args: argparse.Namespace):
    from repro.serve.registry import ModelRegistry

    return ModelRegistry(args.registry_dir)


def _cmd_registry_promote(args: argparse.Namespace) -> int:
    from repro.serve.registry import promote_design

    artifact = promote_design(
        _registry(args),
        args.dataset,
        args.depth,
        args.tau,
        name=args.name,
        seed=args.seed,
        training_sigma=args.training_sigma,
        robustness_weight=args.robustness_weight,
        cache_dir=args.cache_dir,
    )
    meta = artifact.kernel_meta
    print(
        f"promoted {artifact.name}/v{artifact.version} "
        f"(digest {artifact.digest[:12]}): {artifact.dataset} depth "
        f"{artifact.depth} tau {artifact.tau:g}, accuracy "
        f"{artifact.accuracy:.4f}, kernel {meta['n_cubes']} cubes / "
        f"{meta['n_literals']} literals over {meta['n_digits']} digits"
    )
    return 0


def _cmd_registry_list(args: argparse.Namespace) -> int:
    registry = _registry(args)
    entries = [registry.manifest(name) for name in registry.list_models()]
    if args.json:
        print(json.dumps(entries, sort_keys=True))
        return 0
    if not entries:
        print(f"no models in {registry.registry_dir}")
        return 0
    for manifest in entries:
        print(
            f"{manifest['name']}/v{manifest['version']}  "
            f"{manifest['dataset']}  depth {manifest['depth']} "
            f"tau {manifest['tau']:g}  accuracy {manifest['accuracy']:.4f}  "
            f"digest {manifest['digest'][:12]}"
        )
    return 0


def _cmd_registry_show(args: argparse.Namespace) -> int:
    registry = _registry(args)
    try:
        if args.datasheet:
            print(registry.load(args.name, args.version).datasheet)
        else:
            print(
                json.dumps(
                    registry.manifest(args.name, args.version),
                    sort_keys=True,
                    indent=2,
                )
            )
    except KeyError as exc:
        print(f"registry show: {exc.args[0]}", file=sys.stderr)
        return 2
    return 0


def _snapshot_dir(root: Path) -> tuple:
    """Immutable (path, size, mtime_ns) listing of every file under ``root``."""
    if not root.is_dir():
        return ()
    return tuple(
        sorted(
            (str(path.relative_to(root)), stat.st_size, stat.st_mtime_ns)
            for path in root.rglob("*")
            if path.is_file()
            for stat in (path.stat(),)
        )
    )


def _cmd_serve_smoke(args: argparse.Namespace) -> int:
    import asyncio
    import tempfile

    from repro.core.store import default_cache_dir
    from repro.serve.batching import BatchingConfig
    from repro.serve.loadgen import run_open_loop
    from repro.serve.registry import ModelRegistry, promote_design
    from repro.serve.scorer import AsyncScorer

    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    with tempfile.TemporaryDirectory() as scratch:
        registry = ModelRegistry(args.registry_dir if args.registry_dir else scratch)
        # Snapshot before the promote: its cache lookup is the serving stack's
        # only contact with the store and must be read-only too.
        before = _snapshot_dir(cache_dir)
        artifact = promote_design(
            registry,
            args.dataset,
            args.depth,
            args.tau,
            seed=args.seed,
            cache_dir=cache_dir,
        )
        data = load_dataset(args.dataset, seed=args.seed)

        async def drive():
            async with AsyncScorer(
                artifact,
                config=BatchingConfig(
                    max_batch_size=args.max_batch_size,
                    max_wait_us=args.max_wait_us,
                ),
            ) as scorer:
                return await run_open_loop(
                    scorer, data.X, args.rate, duration_s=args.duration
                )

        report = asyncio.run(drive())
        after = _snapshot_dir(cache_dir)

    print(f"serving {artifact.name}/v{artifact.version}:")
    print(report.summary())
    failures = []
    if report.p99_ms > args.p99_slo_ms:
        failures.append(
            f"p99 {report.p99_ms:.3f}ms exceeds the {args.p99_slo_ms:g}ms SLO"
        )
    if report.n_errors:
        failures.append(f"{report.n_errors} requests errored")
    if before != after:
        failures.append(
            f"cache dir {cache_dir} was written during serving "
            f"({len(before)} files before, {len(after)} after)"
        )
    if args.json:
        payload = report.to_dict()
        payload.update(
            {
                "model": f"{artifact.name}/v{artifact.version}",
                "dataset": artifact.dataset,
                "p99_slo_ms": args.p99_slo_ms,
                "cache_writes_during_serving": int(before != after),
                "slo_failures": failures,
            }
        )
        Path(args.json).write_text(json.dumps(payload, sort_keys=True, indent=2))
    if failures:
        for failure in failures:
            print(f"serve smoke: {failure}", file=sys.stderr)
        return 1
    print(
        f"SLO ok: p99 {report.p99_ms:.3f}ms <= {args.p99_slo_ms:g}ms, "
        "0 cache writes during serving"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the bespoke ADC / "
        "decision-tree co-design paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str, *flags: str, **own: dict):
        """One top-level command with its shared ``flags`` (see :func:`_add`)."""
        sub = subparsers.add_parser(name, help=summary)
        _add(sub, *flags, **own)
        sub.set_defaults(handler=handler)
        return sub

    command("fig3", _cmd_fig3, "bespoke ADC area/power scaling (Fig. 3)")
    command("table1", _cmd_table1, "baseline bespoke decision trees (Table I)",
            *_SUITE_FLAGS)
    command("fig4", _cmd_fig4, "gains of unary architecture + bespoke ADCs (Fig. 4)",
            *_SUITE_FLAGS)
    command("fig5", _cmd_fig5, "gains of ADC-aware training (Fig. 5)", *_SUITE_FLAGS)
    # With --sigma: the offset-aware variant, Monte-Carlo robustness joins
    # the selection at each sigma.
    command(
        "table2", _cmd_table2, "co-designed classifiers at <=1%% loss (Table II)",
        *_SUITE_FLAGS, "--sigma", "--trials", "--max-accuracy-drop", "--training-sigma",
    )

    explore = command(
        "explore", _cmd_explore,
        "variation-aware design-space exploration with constrained selection",
        "--dataset", "--sigma", "--trials", "--training-sigma",
        dataset=dict(required=False, default="seeds",
                     help="benchmark to explore (default: seeds)"),
        sigma=dict(nargs=None, default=0.02,
                   help="comparator offset sigma in volts (default: 20 mV)"),
    )
    explore.add_argument(
        "--max-accuracy-loss",
        type=_non_negative_number,
        default=0.01,
        help="nominal accuracy-loss constraint vs the baseline (default 1%%)",
    )
    _add(explore, "--max-accuracy-drop", max_accuracy_drop=dict(
        default=None,
        help="maximum allowed mean accuracy drop under offsets "
        "(default: unconstrained)",
    ))
    explore.add_argument(
        "--objective",
        choices=("power", "area"),
        default="power",
        help="hardware objective of the constrained selection",
    )
    _add(explore, "--seed", "--jobs", "--cache-dir", "--no-cache", "--json",
         "--ppa-backend")

    variation = command(
        "variation", _cmd_variation,
        "Monte-Carlo comparator-offset robustness of a co-designed classifier",
        "--dataset",
    )
    variation.add_argument(
        "--sigma", "--sigmas",
        **{**_FLAGS["--sigma"], "dest": "sigmas",
           "help": "offset sigmas in volts, one or more (--sigmas is an alias; "
           "default: 0 5m 10m 20m 40m)"},
    )
    _add(variation, "--trials", "--depth", "--tau", "--seed", "--training-sigma",
         "--robustness-weight", depth=dict(default=4))
    variation.add_argument(
        "--resolution-bits",
        type=_positive_int,
        default=4,
        help="ADC resolution of the classifier under test (default: 4)",
    )
    variation.add_argument(
        "--test-size",
        type=_test_size_argument,
        default=0.3,
        help="held-out fraction of the train/test split (default: 0.3)",
    )
    _add(variation, "--jobs", "--cache-dir", "--no-cache")

    command(
        "surface", _cmd_surface,
        "map the (sigma x depth x tau) robustness surface per benchmark "
        "from the variation Monte-Carlo pool",
        *_SUITE_FLAGS, "--sigma", "--trials", "--training-sigma", "--cache-only",
        "--json", "--html",
        sigma=dict(required=True),
    )

    search = command(
        "search", _cmd_search,
        "budgeted multi-objective design-space search (Pareto-TPE + "
        "NSGA-II fronts) warm-started from the result store",
        "--dataset",
    )
    search.add_argument(
        "--budget", type=_non_negative_int, required=True,
        help="trial budget of the study",
    )
    search.add_argument(
        "--objective",
        action="append",
        default=None,
        metavar="METRIC",
        help="objective metric, repeatable; each is minimized, prefix '-' to "
        "maximize (spell maximized metrics as --objective=-accuracy so the "
        "leading dash survives argparse).  Default: -accuracy power; "
        "metrics: accuracy, power, area, mean_accuracy_drop",
    )
    search.add_argument(
        "--space",
        choices=space_names(),
        default="paper",
        help="parameter space to search (default: the paper's 49-point grid)",
    )
    _add(search, "--sigma", "--trials", "--seed", sigma=dict(
        nargs=None,
        help="comparator offset sigma in volts; required by the "
        "mean_accuracy_drop objective (shares the variation Monte-Carlo pool)",
    ))
    search.add_argument(
        "--batch-size",
        type=_positive_int,
        default=4,
        help="trials per ask/tell round (fixed independently of --jobs, so "
        "serial and parallel studies are identical)",
    )
    _add(search, "--jobs", "--cache-dir", "--no-cache", "--cache-only", "--json",
         "--html", "--ppa-backend")

    plan_flags = ("--datasets", "--seed", "--fast", "--sigma", "--trials",
                  "--training-sigma", "--cache-dir")
    suite = command(
        "suite", _cmd_suite,
        "compute one shard of the suite's work units into the result store",
        *plan_flags,
    )
    suite.add_argument(
        "--shard",
        type=_shard_argument,
        default=ShardSpec(1, 1),
        help="K/N: compute only the units stable-hashed to shard K of N "
        "(default 1/1, the whole plan)",
    )
    _add(suite, "--jobs")
    suite.add_argument(
        "--list-units",
        action="store_true",
        help="print the shard's planned units and exit without computing",
    )
    assemble = command(
        "assemble", _cmd_assemble,
        "merge shard stores and render all tables from cache hits only",
        *plan_flags,
    )
    assemble.add_argument(
        "--from-archive",
        action="append",
        default=None,
        metavar="ARCHIVE",
        help="merge this exported shard archive into the store first "
        "(repeatable)",
    )
    assemble.add_argument(
        "--from-store",
        action="append",
        default=None,
        metavar="DIR",
        help="merge this shard store directory into the store first "
        "(repeatable)",
    )
    _add(assemble, "--max-accuracy-drop")
    assemble.add_argument(
        "--output-dir",
        default=None,
        help="also write each rendered section to this directory "
        "(table1.txt, table2.txt, fig4.txt, fig5.txt, ...)",
    )

    cache = subparsers.add_parser(
        "cache", help="inspect or maintain the on-disk result store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for cache_name, cache_handler, cache_help in [
        ("stats", _cmd_cache_stats, "entry count, size and lifetime hit/miss totals"),
        ("clear", _cmd_cache_clear, "drop every stored entry"),
        ("prune", _cmd_cache_prune, "drop entries by age and/or LRU size budget"),
        ("export", _cmd_cache_export, "pack the store into a portable .tar.gz"),
        ("import", _cmd_cache_import, "merge exported archives into the store"),
    ]:
        sub = cache_sub.add_parser(cache_name, help=cache_help)
        _add(sub, "--cache-dir")
        sub.set_defaults(handler=cache_handler)
        if cache_name == "stats":
            _add(sub, "--json", json=_JSON_SWITCH)
        if cache_name == "prune":
            sub.add_argument(
                "--older-than-days",
                type=_non_negative_number,
                default=None,
                help="drop entries untouched for more than this many days",
            )
            sub.add_argument(
                "--max-bytes",
                type=_non_negative_int,
                default=None,
                help="evict least-recently-used entries until the store "
                "fits this size budget",
            )
        if cache_name == "export":
            sub.add_argument(
                "--output",
                required=True,
                help="path of the .tar.gz archive to write",
            )
        if cache_name == "import":
            sub.add_argument(
                "archives",
                nargs="+",
                help="archives produced by 'cache export' to merge in",
            )

    registry = subparsers.add_parser(
        "registry",
        help="promote, list and inspect named versioned model artifacts",
    )
    registry_sub = registry.add_subparsers(dest="registry_command", required=True)
    promote = registry_sub.add_parser(
        "promote",
        help="promote one trained (dataset, depth, tau) design to an artifact",
    )
    _add(promote, "--dataset", "--depth", "--tau",
         depth=dict(required=True), tau=dict(default=0.0))
    promote.add_argument(
        "--name",
        default=None,
        help="registry name of the artifact (default: <dataset>-d<depth>)",
    )
    _add(promote, "--seed", "--training-sigma", "--robustness-weight", "--cache-dir",
         "--registry-dir", cache_dir=dict(
             help="result store consulted (read-only) before retraining "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro/results)",
         ))
    promote.set_defaults(handler=_cmd_registry_promote)
    registry_list = registry_sub.add_parser(
        "list", help="list promoted models (latest version each)"
    )
    _add(registry_list, "--json", "--registry-dir", json=_JSON_SWITCH)
    registry_list.set_defaults(handler=_cmd_registry_list)
    registry_show = registry_sub.add_parser(
        "show", help="print one model's manifest (or its datasheet)"
    )
    registry_show.add_argument("name", help="registry name of the model")
    registry_show.add_argument(
        "--version", type=_positive_int, default=None,
        help="version to show (default: latest)",
    )
    registry_show.add_argument(
        "--datasheet",
        action="store_true",
        help="print the artifact's rendered hardware datasheet instead",
    )
    _add(registry_show, "--registry-dir")
    registry_show.set_defaults(handler=_cmd_registry_show)

    serve = subparsers.add_parser(
        "serve", help="serving-layer utilities (load-gen SLO smoke)"
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)
    smoke = serve_sub.add_parser(
        "smoke",
        help="promote a model, drive it open-loop, assert the p99 SLO and "
        "that serving wrote zero bytes to the result store",
    )
    _add(smoke, "--dataset", "--depth", "--tau", "--seed",
         depth=dict(default=8), tau=dict(default=0.0))
    smoke.add_argument(
        "--rate", type=_positive_number, default=500.0,
        help="open-loop request rate (req/s)",
    )
    smoke.add_argument(
        "--duration", type=_positive_number, default=5.0, help="run length in seconds"
    )
    smoke.add_argument(
        "--p99-slo-ms",
        type=_positive_number,
        default=50.0,
        help="p99 latency SLO asserted on the run (milliseconds)",
    )
    smoke.add_argument(
        "--max-batch-size", type=_positive_int, default=256,
        help="micro-batch flush size",
    )
    smoke.add_argument(
        "--max-wait-us",
        type=_non_negative_number,
        default=200.0,
        help="micro-batch accumulation window (microseconds)",
    )
    _add(smoke, "--cache-dir", "--registry-dir", "--json",
         cache_dir=dict(
             help="result store the promote may read (watched for writes; "
             "default: $REPRO_CACHE_DIR or ~/.cache/repro/results)",
         ),
         registry_dir=dict(
             help="model registry directory (default: a throwaway temp dir)"
         ))
    smoke.set_defaults(handler=_cmd_serve_smoke)

    command(
        "datasheet", _cmd_datasheet,
        "train one ADC-aware classifier and print its hardware datasheet",
        "--dataset", "--depth", "--tau", "--seed", "--ppa-backend",
        depth=dict(default=4),
    )

    cosim = command(
        "cosim", _cmd_cosim,
        "co-simulate the exported Verilog label logic against the "
        "golden netlist model (see docs/HARDWARE.md)",
        "--dataset", "--depth", "--tau", "--seed",
        depth=dict(default=4),
    )
    cosim.add_argument(
        "--simulator",
        choices=("auto",) + SIMULATORS,
        default="auto",
        help="Verilog simulator to run under ('auto' picks the first "
        "installed one and degrades to generation-only when none is found; "
        "naming one explicitly fails with exit 2 if it is not installed)",
    )
    cosim.add_argument(
        "--vectors",
        type=_positive_int,
        default=None,
        metavar="N",
        help="random stimulus vectors when the input count exceeds the "
        "exhaustive threshold (default: 256; below the threshold every "
        "input combination is always applied)",
    )
    cosim.add_argument(
        "--emit",
        default=None,
        metavar="DIR",
        help="also write dut.v and tb.v into this directory",
    )
    _add(cosim, "--json")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
