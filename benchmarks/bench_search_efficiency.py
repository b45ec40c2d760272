"""Benchmark -- budgeted Pareto search vs. the exhaustive depth x tau grid.

The adaptive-search subsystem (:mod:`repro.search`) replaces the 49-point
exhaustive sweep with a seeded Pareto-TPE study under a fixed trial budget.
This benchmark quantifies the trade it makes: on each measured benchmark the
study trains **>= 5x fewer trees** than the grid while its front keeps
**>= 95% of the exhaustive front's hypervolume** (accuracy maximized, power
minimized, reference point just beyond the union of both fronts).

The study runs against a throwaway store, so every trial genuinely trains --
the trained-tree count is honest, not a warm-start artifact.  The exhaustive
side reuses the ordinary suite sweep (cached across nightly runs).  Rows
land in ``BENCH_search.json``; ``speedup`` is the trained-tree ratio
(grid / study), gated by ``benchmarks/baselines.json``.

The ``sampler_ask`` row times the sampler alone: the array-scoring
:class:`ParetoTPESampler` against the scalar scorer it replaced
(``tests/oracles/tpe_scalar.py``), both fed the same tells in one process
on the paper space; ``speedup`` is the ratio of their total ``ask`` time.
"""

import os
import time

from oracles.tpe_scalar import ScalarTPESampler

from repro.analysis.experiments import run_benchmark_suite
from repro.analysis.render import render_table
from repro.core.store import ResultStore
from repro.search import ParetoTPESampler, Study, hypervolume, paper_space

DATASETS = ("vertebral_2c", "seeds")
BUDGET = 9
BATCH_SIZE = 3
GRID_SIZE = 49  # |depths 2..8| x |taus 0..0.03 step 0.005|
MIN_HV_RATIO = 0.95
MIN_SPEEDUP = 5.0
ASK_TRIALS = 32
ASK_BATCH = 4


def _reference_point(fronts) -> tuple[float, ...]:
    """A point weakly worse than every front point on every axis."""
    axes = zip(*[point for front in fronts for point in front])
    return tuple(max(axis) + 0.05 * (abs(max(axis)) + 1.0) for axis in axes)


def _grid_front(dataset: str, seed: int, jobs, store: ResultStore):
    """Minimize-tuples of the exhaustive sweep's design points."""
    [result] = run_benchmark_suite(
        datasets=(dataset,),
        seed=seed,
        include_approximate_baseline=False,
        jobs=jobs,
        store=store,
    )
    assert len(result.exploration) == GRID_SIZE
    return [
        (-point.accuracy, point.hardware.total_power_uw)
        for point in result.exploration
    ]


def _run_study(dataset: str, seed: int, store: ResultStore):
    space = paper_space()
    study = Study(
        dataset,
        space=space,
        objectives=("-accuracy", "power"),
        seed=seed,
        store=store,
        batch_size=BATCH_SIZE,
        sampler=ParetoTPESampler(
            space, seed=seed, n_startup_trials=4, bandwidth=0.25
        ),
    )
    start = time.perf_counter()
    result = study.run(budget=BUDGET)
    return result, time.perf_counter() - start


def _measure(seed: int, jobs, grid_store: ResultStore, tmp_path):
    rows = []
    for dataset in DATASETS:
        grid_objectives = _grid_front(dataset, seed, jobs, grid_store)
        store = ResultStore(cache_dir=tmp_path / f"search-{dataset}")
        result, elapsed_s = _run_study(dataset, seed, store)
        study_front = [trial.objectives for trial in result.front]
        reference = _reference_point([grid_objectives, study_front])
        grid_hv = hypervolume(grid_objectives, reference)
        study_hv = hypervolume(study_front, reference)
        assert grid_hv > 0.0, f"degenerate exhaustive front on {dataset}"
        rows.append(
            {
                "dataset": dataset,
                "grid_trees": GRID_SIZE,
                "trained_trees": result.n_trained,
                "hv_ratio": study_hv / grid_hv,
                "front_size": len(result.front_numbers),
                "elapsed_s": elapsed_s,
                "trials_per_sec": len(result.trials) / elapsed_s,
                "speedup": GRID_SIZE / result.n_trained,
            }
        )
    return rows


def _synthetic_objectives(config) -> tuple[float, float]:
    """A deterministic depth/tau trade-off standing in for a trained tree."""
    depth, tau = config["depth"], config["tau"]
    return (8.0 - depth) + 30.0 * tau, depth * depth * (1.0 - 10.0 * tau)


def _time_asks(sampler_type):
    """Config ids and total ``ask`` seconds of one synthetic paper study."""
    space = paper_space()
    sampler = sampler_type(space, seed=0)
    ids, elapsed_s = [], 0.0
    while len(ids) < ASK_TRIALS:
        start = time.perf_counter()
        batch = sampler.ask(ASK_BATCH)
        elapsed_s += time.perf_counter() - start
        for config in batch:
            ids.append(space.config_id(config))
            sampler.tell(config, _synthetic_objectives(config))
    return ids, elapsed_s


def _sampler_ask_row() -> dict:
    """Array-scored ``ask`` vs the scalar oracle on the same tells."""
    ids, fast_s = _time_asks(ParetoTPESampler)
    oracle_ids, oracle_s = _time_asks(ScalarTPESampler)
    assert ids == oracle_ids, "array and scalar samplers diverged"
    return {
        "name": "sampler_ask",
        "dataset": "paper",
        "samples_per_sec": len(ids) / fast_s,
        "unit": "trials/s",
        "speedup": oracle_s / fast_s,
    }


def _render(rows) -> str:
    table = render_table(
        ["dataset", "grid trees", "study trees", "speedup (x)",
         "hv ratio", "front size", "study (s)"],
        [
            (r["dataset"], r["grid_trees"], r["trained_trees"], r["speedup"],
             r["hv_ratio"], r["front_size"], r["elapsed_s"])
            for r in rows
        ],
    )
    return (
        f"Budgeted Pareto search vs. the exhaustive grid (budget {BUDGET}, "
        f"objectives -accuracy/power; hv ratio vs. the {GRID_SIZE}-point sweep)\n"
        + table
    )


def _bench_rows(rows) -> list[dict]:
    """Rows of ``BENCH_search.json`` (schema: benchmarks/conftest.py)."""
    return [
        {
            "name": "budgeted_front",
            "dataset": r["dataset"],
            "samples_per_sec": r["trials_per_sec"],
            "unit": "trials/s",
            "speedup": r["speedup"],
            "hv_ratio": r["hv_ratio"],
        }
        for r in rows
    ]


def test_search_efficiency(
    benchmark, bench_seed, write_report, write_bench_json, tmp_path
):
    """>= 95% of the exhaustive hypervolume from >= 5x fewer trained trees."""
    jobs = int(os.environ["REPRO_BENCH_JOBS"]) if os.environ.get("REPRO_BENCH_JOBS") else None
    grid_store = ResultStore(os.environ.get("REPRO_BENCH_CACHE_DIR") or None)
    rows = benchmark.pedantic(
        lambda: _measure(bench_seed, jobs, grid_store, tmp_path), rounds=1, iterations=1
    )
    ask_row = _sampler_ask_row()
    write_report(
        "search_efficiency",
        _render(rows)
        + f"\nsampler ask, paper space ({ASK_TRIALS} trials): "
        f"{ask_row['speedup']:.1f}x the scalar scorer",
    )
    write_bench_json("search", _bench_rows(rows) + [ask_row])
    for r in rows:
        assert r["speedup"] >= MIN_SPEEDUP, (
            f"{r['dataset']}: trained {r['trained_trees']} trees, only "
            f"{r['speedup']:.1f}x fewer than the grid (need >= {MIN_SPEEDUP:.0f}x)"
        )
        assert r["hv_ratio"] >= MIN_HV_RATIO, (
            f"{r['dataset']}: hv ratio {r['hv_ratio']:.4f} below "
            f"{MIN_HV_RATIO:.2f} of the exhaustive front"
        )
