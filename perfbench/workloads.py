"""One pass of each workload, run inside a fresh child interpreter.

Every function here takes the workload seed and the directories it may
use, runs serially (``jobs=1``) against its own result store, and returns a
JSON-ready dict: operation latencies, the rendered outputs' digests and the
failures of the seed-independent output checks.  ``child.py`` calls them;
``run.py`` aggregates the passes into metrics.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

#: The multi-sigma robustness surface of ``surface_cold`` and ``replay_warm``.
SURFACE_DATASETS = ("cardio", "vertebral_2c")
SURFACE_SIGMAS = (0.01, 0.02, 0.04)
SURFACE_TRIALS = 100

#: The budgeted study replayed by ``replay_warm``.  Its seed is fixed: the
#: cost of ``ParetoTPESampler.ask`` swings from 0.03 s to 1.6 s between
#: seeds, which would make the replay's spread a property of the seed.
SEARCH_DATASET = "cardio"
SEARCH_BUDGET = 12
SEARCH_SEED = 0

#: The models ``serve`` promotes, and how it drives the scorer.  One run
#: serves ``SERVE_MODELS`` models, trained at seeds ``seed`` to
#: ``seed + SERVE_MODELS - 1``: a model's flush cost, and with it the
#: open-loop latency, differs by up to a fifth between seeds, and the mean
#: over consecutive seeds keeps one model from deciding a run.
SERVE_DATASET = "cardio"
SERVE_DEPTH = 8
SERVE_TAU = 0.0
SERVE_MODELS = 4
#: Set-up promotes each model this many times as one timed group, with a
#: host probe before the first group and after every group.
SERVE_PROMOTES_PER_MODEL = 5
SERVE_CLIENTS = 256
SERVE_REQUESTS_PER_CLIENT = 64
#: Open-loop rate.  At 5 000 req/s some seeds' models came near saturation
#: on a slow host (one run's window p50s spread from 3.6 to 7.0 ms); at
#: 2 000 req/s a run's window p50s stay within a few percent of each other
#: and do not follow the host probe.
SERVE_RATE_HZ = 2000.0
SERVE_WINDOW_S = 1.0
#: Latency limit on the open-loop p99; a failed request counts as missing it.
SERVE_P99_LIMIT_MS = 50.0


#: Seconds :func:`host_probe` takes on an uncontended host.  CPU-bound
#: timings are reported scaled by ``PROBE_REFERENCE_S / probe``, with the
#: probe taken around the timed work, so that the host's own speed swings
#: (up to 2.4x on a shared 2-core machine) do not read as changes of the
#: program.
PROBE_REFERENCE_S = 0.006


def host_probe() -> float:
    """Median seconds of a fixed pure-Python loop: the host's current speed."""
    samples = []
    for _ in range(9):
        began = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        samples.append(time.perf_counter() - began)
    return statistics.median(samples)


def digest(text: str) -> str:
    """Short content digest of one rendered output."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def replay_commands(seed: int, cache_dir: str, cache_only: bool = True) -> list[tuple[str, list[str]]]:
    """The six CLI invocations of ``replay_warm`` as ``(label, argv)`` pairs."""
    common = ["--seed", str(seed), "--jobs", "1", "--cache-dir", str(cache_dir)]
    only = ["--cache-only"] if cache_only else []
    return [
        ("table1", ["table1", *common]),
        ("fig4", ["fig4", *common]),
        ("fig5", ["fig5", *common]),
        ("table2", ["table2", *common]),
        ("surface", ["surface", "--datasets", *SURFACE_DATASETS,
                     "--sigma", *map(str, SURFACE_SIGMAS),
                     "--trials", str(SURFACE_TRIALS), *common, *only]),
        ("search", ["search", "--dataset", SEARCH_DATASET, "--budget", str(SEARCH_BUDGET),
                    "--seed", str(SEARCH_SEED), *common[2:], *only]),
    ]


def paper_error_pct(results) -> float:
    """Mean relative error (%) of Table I accuracy, area and power vs. the paper."""
    from repro.analysis.tables import table1_rows
    from repro.datasets.registry import paper_reference

    errors = []
    for row in table1_rows(results):
        reference = paper_reference(row["dataset"])
        for ours, theirs in (
            (row["accuracy_pct"] / 100.0, reference["accuracy"]),
            (row["total_area_mm2"], reference["total_area_mm2"]),
            (row["total_power_mw"], reference["total_power_mw"]),
        ):
            errors.append(abs(ours - theirs) / theirs)
    return 100.0 * sum(errors) / len(errors)


# ---------------------------------------------------------------------- #
# paper_cold
# ---------------------------------------------------------------------- #
def paper_pass(seed: int, store_dir: str):
    """The paper protocol on an empty store: both suite variants, eight datasets.

    Each variant is computed one dataset at a time (serially, exactly the
    work of one eight-dataset call), with a host probe after every dataset;
    one operation (and segment) is one dataset of one variant.  The outputs are the
    ``table1``/``fig4``/``fig5``/``table2`` renders.  Returns the pass
    record and a ``verify()`` callable that runs the seed-independent output
    checks (after tracing stops) and returns the failures.
    """
    from repro import cli
    from repro.analysis.experiments import run_benchmark_suite
    from repro.core.store import ResultStore
    from repro.datasets.registry import dataset_names

    store = ResultStore(store_dir)
    segment_s, probes = [], [host_probe()]
    results: dict[bool, list] = {False: [], True: []}
    for include_approximate in (False, True):
        for name in dataset_names():
            began = time.perf_counter()
            (result,) = run_benchmark_suite(
                datasets=(name,), seed=seed, jobs=1, store=store,
                include_approximate_baseline=include_approximate,
            )
            segment_s.append(time.perf_counter() - began)
            probes.append(host_probe())
            results[include_approximate].append(result)
    outputs = {
        "table1": cli._render_table1(results[False]) + "\n",
        "fig4": cli._render_fig4(results[False]) + "\n",
        "fig5": cli._render_fig5(results[False]) + "\n",
        "table2": cli._render_table2(results[True]) + "\n",
    }

    def verify() -> list[str]:
        # Both variants share the whole exploration; only Table II's baseline
        # [7] differs, so the nominal artefacts must render identically.
        return [
            f"{label}: the table2 variant renders it differently"
            for label, render in (("table1", cli._render_table1),
                                  ("fig4", cli._render_fig4), ("fig5", cli._render_fig5))
            if render(results[True]) + "\n" != outputs[label]
        ]

    return {
        "segment_s": segment_s,
        "probe_s": probes,
        "digests": {label: digest(text) for label, text in outputs.items()},
        "paper_error_pct": paper_error_pct(results[False]),
        "checks": 3,
    }, verify


# ---------------------------------------------------------------------- #
# surface_cold
# ---------------------------------------------------------------------- #
def render_surfaces(surfaces) -> dict[str, str]:
    """The ``surface`` command's stdout and the surfaces' JSON record."""
    from repro import cli

    return {
        "surface": "\n\n".join(cli._render_surface_text(s) for s in surfaces) + "\n",
        "surface_json": json.dumps([s.to_json_dict() for s in surfaces], sort_keys=True),
    }


def surface_pass(seed: int, store_dir: str):
    """The multi-sigma robustness surface of two datasets on an empty store.

    Each dataset's surface is computed one sigma at a time (the first call
    also computes its nominal suite entry; every call trains and simulates
    one Monte-Carlo unit per grid point, exactly the units of one
    multi-sigma call), with a host probe after every sigma.  One operation
    (and segment) is one dataset at one sigma.  The per-sigma surfaces are
    joined in sigma order, the cell order of a multi-sigma call.  Returns
    the pass record and a ``verify()`` callable, as :func:`paper_pass` does.
    """
    from repro.analysis.experiments import run_benchmark_suite, run_robustness_surface
    from repro.core.store import ResultStore

    store = ResultStore(store_dir)
    segment_s, probes = [], [host_probe()]
    surfaces = []
    for name in SURFACE_DATASETS:
        parts = []
        for sigma in SURFACE_SIGMAS:
            began = time.perf_counter()
            parts.append(
                run_robustness_surface(
                    name, (sigma,), n_trials=SURFACE_TRIALS, seed=seed, jobs=1,
                    store=store,
                )
            )
            segment_s.append(time.perf_counter() - began)
            probes.append(host_probe())
        surfaces.append(dataclasses.replace(
            parts[0],
            sigmas=tuple(sigma for part in parts for sigma in part.sigmas),
            cells=tuple(cell for part in parts for cell in part.cells),
        ))
    outputs = render_surfaces(surfaces)

    def verify() -> list[str]:
        # The Monte-Carlo units retrain each grid tree; with ideal comparators
        # it must score exactly what the suite's exploration scored.
        failures = []
        for surface in surfaces:
            (suite,) = run_benchmark_suite(
                datasets=(surface.dataset,), seed=seed, jobs=1, store=store,
                include_approximate_baseline=False,
            )
            nominal = {(p.depth, p.tau): p.accuracy for p in suite.exploration}
            differing = sum(cell.nominal_accuracy != nominal[cell.depth, cell.tau]
                            for cell in surface.cells)
            if differing:
                failures.append(f"surface {surface.dataset}: {differing} cells' nominal "
                                "accuracy differs from the suite's exploration")
        return failures

    return {
        "segment_s": segment_s,
        "probe_s": probes,
        "digests": {label: digest(text) for label, text in outputs.items()},
        "checks": len(surfaces),
    }, verify


# ---------------------------------------------------------------------- #
# replay_warm set-up
# ---------------------------------------------------------------------- #
def fill_store(seed: int, store_dir: str, expected_dir: str) -> dict:
    """Run the six replayed commands in-process on an empty store.

    This is the cold computation whose stdout the warm replay must equal
    byte for byte; each expected stdout is written to ``expected_dir``.
    The search runs twice: at a workload seed other than
    :data:`SEARCH_SEED` its first run trains the trials it cannot take from
    a suite entry, so only the second run prints what a replay prints.
    """
    from repro import cli

    outputs = {}
    seconds, probes = [], [host_probe()]
    commands = replay_commands(seed, store_dir, cache_only=False)
    for label, argv in commands + commands[-1:]:
        buffer = io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        seconds.append(time.perf_counter() - began)
        probes.append(host_probe())
        if code != 0:
            raise RuntimeError(f"{label} exited {code} while filling the store")
        outputs[label] = buffer.getvalue()
    expected = Path(expected_dir)
    expected.mkdir(parents=True, exist_ok=True)
    for label, text in outputs.items():
        (expected / f"{label}.txt").write_text(text, encoding="utf-8")
    return {
        # Seconds of each command, with a host probe before the first and
        # after every command.
        "setup_s": seconds,
        "probe_s": probes,
        "digests": {label: digest(text) for label, text in outputs.items()},
    }


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
def promote_model(seed: int, registry_dir: str, store_dir: str):
    """Train and promote the served model into a fresh registry; load it back."""
    from repro.serve.registry import ModelRegistry, promote_design

    registry = ModelRegistry(registry_dir)
    artifact = promote_design(
        registry, SERVE_DATASET, SERVE_DEPTH, SERVE_TAU, seed=seed, cache_dir=store_dir
    )
    return registry.load(artifact.name, artifact.version)


async def _closed_loop_pass(scorer, rows, expected) -> tuple[float, int, int]:
    """256 clients, one request in flight each; returns (seconds, requests, failed)."""
    failed = 0

    async def client(index: int) -> None:
        nonlocal failed
        for step in range(SERVE_REQUESTS_PER_CLIENT):
            row = (index + step * SERVE_CLIENTS) % len(rows)
            try:
                label = await scorer.score(rows[row])
            except Exception:
                failed += 1
                continue
            failed += label != expected[row]

    start = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(SERVE_CLIENTS)))
    return (time.perf_counter() - start, SERVE_CLIENTS * SERVE_REQUESTS_PER_CLIENT,
            failed)


async def _open_window(scorer, rows, expected) -> dict:
    """One window of requests at a fixed rate, timed from each one's scheduled send."""
    n_requests = int(SERVE_WINDOW_S * SERVE_RATE_HZ)
    latencies = [SERVE_P99_LIMIT_MS * 2.0] * n_requests  # failures miss the limit
    lags = []
    failed = 0
    loop = asyncio.get_running_loop()

    async def fire(index: int, scheduled: float) -> None:
        nonlocal failed
        row = index % len(rows)
        try:
            label = await scorer.score(rows[row])
        except Exception:
            failed += 1
            return
        if label != expected[row]:
            failed += 1
            return
        latencies[index] = (time.perf_counter() - scheduled) * 1e3

    # Only in-flight requests stay referenced: holding every finished task
    # would grow the heap, and with it the collector's pauses, over the run.
    in_flight: set[asyncio.Task] = set()
    start = time.perf_counter()
    for index in range(n_requests):
        scheduled = start + index / SERVE_RATE_HZ
        delay = scheduled - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, time.perf_counter() - scheduled) * 1e3)
        task = loop.create_task(fire(index, scheduled))
        in_flight.add(task)
        task.add_done_callback(in_flight.discard)
    while in_flight:
        await asyncio.gather(*in_flight)
    return {
        "requests": n_requests,
        "failed": failed,
        "p50_ms": float(np.percentile(latencies, 50)),
        "p99_ms": float(np.percentile(latencies, 99)),
        "mean_ms": statistics.fmean(latencies),
        "lag_ms": statistics.fmean(lags),
    }


def serve_run(seed: int, workdir: str, seconds: float, tracer=None) -> dict:
    """Promote the models, then a closed-loop phase and an open-loop phase.

    Both phases take turns over the models in rounds: one closed-loop pass
    per model and a host probe, then one open-loop window per model.  The
    closed loop runs rounds for about 40 % of ``seconds``, the open loop
    for about 60 %.  A ``tracer`` is installed after the set-up, so it
    records serving only.
    """
    from repro.adc.thermometer import quantize_array_to_levels
    from repro.datasets.registry import load_dataset
    from repro.serve.batching import BatchingConfig
    from repro.serve.scorer import AsyncScorer

    root = Path(workdir)
    models, setup, setup_probes = [], [], [host_probe()]
    for model_seed in range(seed, seed + SERVE_MODELS):
        began = time.perf_counter()
        for index in range(SERVE_PROMOTES_PER_MODEL):
            artifact = promote_model(model_seed, str(root / f"registry{model_seed}-{index}"),
                                     str(root / "store"))
        setup.append((time.perf_counter() - began) / SERVE_PROMOTES_PER_MODEL)
        setup_probes.append(host_probe())
        rows = load_dataset(SERVE_DATASET, seed=model_seed).X
        expected = [int(label) for label in artifact.tree.predict_levels(
            quantize_array_to_levels(rows, artifact.resolution_bits))]
        models.append((artifact, rows, expected))
    config = BatchingConfig(max_batch_size=256, max_wait_us=200.0)
    open_rounds = max(2, round(0.6 * seconds / (SERVE_MODELS * SERVE_WINDOW_S)))
    if tracer is not None:
        tracer.install()

    async def drive() -> dict:
        started = time.perf_counter()
        requests = failed = 0
        closed_s = [[] for _ in models]
        closed_probes = [host_probe()]
        async with contextlib.AsyncExitStack() as stack:
            scorers = [await stack.enter_async_context(AsyncScorer(artifact, config=config))
                       for artifact, _, _ in models]
            for scorer, (_, rows, expected) in zip(scorers, models):  # warm-up
                _, n, bad = await _closed_loop_pass(scorer, rows, expected)
                requests += n
                failed += bad
            deadline = time.perf_counter() + 0.4 * seconds
            while len(closed_probes) < 3 or time.perf_counter() < deadline:
                for passes, scorer, (_, rows, expected) in zip(closed_s, scorers, models):
                    elapsed, n, bad = await _closed_loop_pass(scorer, rows, expected)
                    passes.append(elapsed)
                    requests += n
                    failed += bad
                closed_probes.append(host_probe())
        first_span = len(tracer.spans) if tracer is not None else 0
        windows = [[] for _ in models]
        async with contextlib.AsyncExitStack() as stack:
            scorers = [await stack.enter_async_context(AsyncScorer(artifact, config=config))
                       for artifact, _, _ in models]
            for _ in range(open_rounds):
                for done, scorer, (_, rows, expected) in zip(windows, scorers, models):
                    done.append(await _open_window(scorer, rows, expected))
            stats = [scorer.stats for scorer in scorers]
        flat = [window for done in windows for window in done]
        flushes = sum(stat.n_flushes for stat in stats)
        flush_s = 0.0
        if tracer is not None:
            flush_s = sum(end - start for _, parent, start, end
                          in tracer.spans[first_span:] if parent < 0)
        return {
            # Seconds per promotion of each model's set-up group.
            "setup_s": setup,
            "setup_probe_s": setup_probes,
            # Per model, one closed-loop pass per round; one probe before the
            # first round and one after every round.
            "closed_s": closed_s,
            "closed_probe_s": closed_probes,
            "attempted": requests + sum(window["requests"] for window in flat),
            "failed": failed + sum(window["failed"] for window in flat),
            "open": {
                "requests": sum(window["requests"] for window in flat),
                "window_p50_ms": [[w["p50_ms"] for w in done] for done in windows],
                "window_p99_ms": [[w["p99_ms"] for w in done] for done in windows],
                "mean_ms": statistics.fmean(window["mean_ms"] for window in flat),
                "lag_ms": statistics.fmean(window["lag_ms"] for window in flat),
            },
            "flushes": flushes,
            "mean_batch": sum(stat.mean_batch * stat.n_flushes for stat in stats)
            / max(flushes, 1),
            "flush_ms": 1e3 * flush_s / max(flushes, 1),
            "run_s": time.perf_counter() - started,
        }

    return asyncio.run(drive())
