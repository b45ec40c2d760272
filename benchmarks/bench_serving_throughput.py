"""Benchmark -- micro-batched serving vs single-request scoring, with SLOs.

The serving stack (:mod:`repro.serve`) amortizes per-request cost into one
ADC conversion and one packed-kernel call per flush.  This benchmark
quantifies that amortization on the cardio depth-8 classifier and attaches
open-loop latency SLO rows for the two deployment scenario streams.

Four measurement groups:

1. **Micro-batch capacity** -- a closed loop of 256 concurrent clients
   through :class:`~repro.serve.scorer.AsyncScorer` versus the
   single-request reference (``score_one``: one quantization + one 1-row
   kernel call per request, exactly a request-per-call server).
   Micro-batched serving must clear :data:`MIN_SERVING_SPEEDUP`.  A flush
   pays one quantization, one kernel call and the asyncio wake-ups once for
   the whole batch; on int bitsets the kernel call itself costs about
   0.1 ms for one row and not much more for 256, so the gain is now mostly
   the shared fixed cost per request rather than the kernel's.
2. **Batch-size sweep** -- the same closed loop at max_batch_size in
   {16, 64, 256} (informational: shows where the flush cost stops
   dominating the asyncio per-request overhead).
3. **Open-loop SLO** -- the healthcare-patch (vertebral_2c) and
   smart-packaging freshness streams replayed at a fixed rate with
   coordinated-omission-safe latency accounting; the recorded ``speedup``
   is the *SLO headroom* ``p99_slo / p99`` (>= 1 means the SLO holds).
4. **Lone-request window** -- sequential single requests through
   ``AsyncScorer`` at ``max_wait_us=200``; the recorded ``speedup`` is
   ``1 ms / median latency``.  The event loop's timers tick in whole
   milliseconds, so a window rounded up to one tick reads below 1.

Bit-identity of the scorer against ``tree.predict_levels`` over a ragged
concurrent request mix is asserted before any timing is trusted.  Emits
``benchmarks/results/BENCH_serving.json`` for the perf-trajectory gate
(``check_regression.py`` + ``baselines.json``).
"""

import asyncio
import tempfile
import time

import numpy as np

from repro.analysis.render import render_table
from repro.core.adc_aware_training import ADCAwareTrainer
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import make_classification_blobs
from repro.mltrees.evaluation import train_test_split
from repro.mltrees.quantize import quantize_dataset
from repro.serve.batching import BatchingConfig
from repro.serve.loadgen import run_closed_loop, run_open_loop
from repro.serve.registry import ModelRegistry, promote_design
from repro.serve.scorer import AsyncScorer

DATASET = "cardio"
DEPTH = 8
TAU = 0.0
N_CLIENTS = 256            # concurrent closed-loop clients (saturation)
REQUESTS_PER_CLIENT = 40
N_SINGLE = 1500            # single-request reference calls
N_TIMING_REPEATS = 3       # best-of repeats; throughput gates time the floor
BATCH_SWEEP = (16, 64, 256)
MIN_SERVING_SPEEDUP = 5.0  # acceptance: micro-batched >= 5x single-request

#: Open-loop SLO scenarios: (row dataset tag, stream rate, p99 SLO).
SLO_RATE_HZ = 2000.0
SLO_DURATION_S = 1.5
SLO_P99_MS = 50.0

#: Lone-request window: sequential requests, the wait they are configured to
#: pay, and the event-loop timer tick their median must stay well under.
N_LONE = 200
LONE_WAIT_US = 200.0
TIMER_TICK_MS = 1.0


def _promote(seed: int, registry_dir: str, cache_dir: str):
    """Promote the cardio depth-8 design through a scratch registry."""
    return promote_design(
        ModelRegistry(registry_dir),
        DATASET,
        DEPTH,
        TAU,
        seed=seed,
        cache_dir=cache_dir,
    )


def _request_stream(seed: int) -> np.ndarray:
    dataset = load_dataset(DATASET, seed=seed)
    _, X_test, _, _ = train_test_split(dataset.X, dataset.y, test_size=0.3, seed=seed)
    repeats = -(-4096 // len(X_test))  # ceil division
    return np.tile(X_test, (repeats, 1))[:4096]


def _assert_bit_identity(artifact, rows: np.ndarray, seed: int) -> None:
    """A ragged concurrent mix through the scorer == scalar predict_levels."""
    rng = np.random.default_rng(seed)
    expected = artifact.tree.predict_levels(
        quantize_dataset(rows, artifact.resolution_bits)
    )

    async def mixed() -> list[int]:
        got: dict[int, int] = {}
        async with AsyncScorer(
            artifact,
            config=BatchingConfig(max_batch_size=64, max_wait_us=100.0),
        ) as scorer:

            async def burst(indices) -> None:
                labels = await asyncio.gather(
                    *(scorer.score(rows[i]) for i in indices)
                )
                got.update(zip(indices, labels))

            # Ragged mix: bursts of wildly different sizes, interleaved.
            cursor, bursts = 0, []
            while cursor < len(rows):
                size = int(rng.integers(1, 97))
                bursts.append(list(range(cursor, min(cursor + size, len(rows)))))
                cursor += size
            await asyncio.gather(*(burst(b) for b in bursts))
        return [got[i] for i in range(len(rows))]

    served = asyncio.run(mixed())
    np.testing.assert_array_equal(np.asarray(served), expected)


def _measure_single(artifact, rows: np.ndarray) -> float:
    """Requests/s of the single-request reference path (best-of repeats)."""
    scorer = AsyncScorer(artifact)
    for row in rows[:16]:  # warm-up: numpy caches
        scorer.score_one(row)
    best = float("inf")
    for _ in range(N_TIMING_REPEATS):
        start = time.perf_counter()
        for i in range(N_SINGLE):
            scorer.score_one(rows[i % len(rows)])
        best = min(best, time.perf_counter() - start)
    return N_SINGLE / best


def _measure_microbatch(
    artifact, rows: np.ndarray, max_batch_size: int
) -> tuple[float, float]:
    """(requests/s, mean batch) of the saturated closed loop (best-of)."""

    async def once() -> tuple[float, float]:
        async with AsyncScorer(
            artifact,
            config=BatchingConfig(
                max_batch_size=max_batch_size, max_wait_us=200.0
            ),
        ) as scorer:
            report = await run_closed_loop(
                scorer,
                rows,
                n_clients=N_CLIENTS,
                requests_per_client=REQUESTS_PER_CLIENT,
            )
        return report.throughput_hz, report.batcher.mean_batch

    best_rate, mean_batch = 0.0, 0.0
    for _ in range(N_TIMING_REPEATS):
        rate, batch = asyncio.run(once())
        if rate > best_rate:
            best_rate, mean_batch = rate, batch
    return best_rate, mean_batch


def _measure_slo(seed: int, registry_dir: str, cache_dir: str) -> list[dict]:
    rows_out = []
    # The healthcare-patch posture stream (vertebral_2c, a registry-promoted
    # model) and the smart-packaging freshness stream (the synthetic
    # gas-sensor array of examples/smart_packaging_freshness.py: 6 printed
    # sensors, 3 classes, served by its own freshly trained classifier).
    freshness_X, freshness_y = make_classification_blobs(
        n_samples=600, n_features=6, n_classes=3, seed=seed
    )
    for tag, stream in (("vertebral_2c", None), ("freshness", freshness_X)):
        if tag == "freshness":
            X_train, _, y_train, _ = train_test_split(
                freshness_X, freshness_y, test_size=0.3, seed=seed
            )
            model = ADCAwareTrainer(
                max_depth=4, gini_threshold=0.01, seed=seed
            ).fit(quantize_dataset(X_train), y_train, 3)
        else:
            stream = load_dataset(tag, seed=seed).X
            model = promote_design(
                ModelRegistry(registry_dir),
                tag,
                4,
                0.0,
                seed=seed,
                cache_dir=cache_dir,
            )

        async def drive():
            async with AsyncScorer(model) as scorer:
                return await run_open_loop(
                    scorer, stream, SLO_RATE_HZ, duration_s=SLO_DURATION_S
                )

        report = asyncio.run(drive())
        rows_out.append(
            {
                "workload": (
                    f"open loop {tag} @ {SLO_RATE_HZ:.0f}/s for {SLO_DURATION_S:g}s"
                ),
                "dataset": tag,
                "rate": report.throughput_hz,
                "p50_ms": report.p50_ms,
                "p99_ms": report.p99_ms,
                "headroom": SLO_P99_MS / max(report.p99_ms, 1e-9),
            }
        )
    return rows_out


def _measure_lone_window(artifact, rows: np.ndarray) -> dict:
    """Median latency of sequential lone requests, one window each."""

    async def drive() -> list[float]:
        config = BatchingConfig(max_wait_us=LONE_WAIT_US)
        async with AsyncScorer(artifact, config=config) as scorer:
            await scorer.score(rows[0])  # starts the worker
            latencies = []
            for i in range(N_LONE):
                start = time.perf_counter()
                await scorer.score(rows[i % len(rows)])
                latencies.append(time.perf_counter() - start)
        return latencies

    p50_ms = float(np.median(asyncio.run(drive()))) * 1e3
    return {"p50_ms": p50_ms, "headroom": TIMER_TICK_MS / p50_ms}


def _measure(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        registry_dir = f"{scratch}/registry"
        cache_dir = f"{scratch}/cache"
        artifact = _promote(seed, registry_dir, cache_dir)
        rows = _request_stream(seed)
        _assert_bit_identity(artifact, rows, seed)

        single_rate = _measure_single(artifact, rows)
        sweep = []
        for max_batch in BATCH_SWEEP:
            micro_rate, mean_batch = _measure_microbatch(artifact, rows, max_batch)
            sweep.append(
                {
                    "max_batch": max_batch,
                    "single_rate": single_rate,
                    "micro_rate": micro_rate,
                    "mean_batch": mean_batch,
                    "speedup": micro_rate / single_rate,
                }
            )
        slo = _measure_slo(seed, registry_dir, cache_dir)
        lone = _measure_lone_window(artifact, rows)
    # The headline capacity row uses the largest sweep point.
    return {"capacity": sweep[-1], "sweep": sweep, "slo": slo, "lone": lone}


def _render(measured) -> str:
    sweep_table = render_table(
        ["max batch", "single req/s", "micro req/s", "mean batch", "speedup (x)"],
        [
            (r["max_batch"], r["single_rate"], r["micro_rate"], r["mean_batch"],
             r["speedup"])
            for r in measured["sweep"]
        ],
    )
    slo_table = render_table(
        ["stream", "achieved req/s", "p50 (ms)", "p99 (ms)",
         f"headroom vs {SLO_P99_MS:g}ms SLO (x)"],
        [
            (r["dataset"], r["rate"], r["p50_ms"], r["p99_ms"], r["headroom"])
            for r in measured["slo"]
        ],
    )
    lone = measured["lone"]
    return (
        f"Serving throughput on {DATASET} depth {DEPTH}: micro-batched "
        f"AsyncScorer ({N_CLIENTS} closed-loop clients) vs single-request "
        f"scoring\n{sweep_table}\n\nOpen-loop SLO "
        f"({SLO_RATE_HZ:.0f} req/s, coordinated-omission-safe "
        f"percentiles)\n{slo_table}\n\nLone request at max_wait_us="
        f"{LONE_WAIT_US:g}: median {lone['p50_ms']:.3f} ms over {N_LONE} "
        f"requests, headroom vs the {TIMER_TICK_MS:g} ms timer tick "
        f"{lone['headroom']:.2f}x"
    )


def _bench_rows(measured) -> list[dict]:
    """Rows of ``BENCH_serving.json`` (schema: benchmarks/conftest.py)."""
    capacity = measured["capacity"]
    rows = [
        {
            "name": "microbatch",
            "dataset": DATASET,
            "samples_per_sec": capacity["micro_rate"],
            "unit": "requests/s",
            "speedup": capacity["speedup"],
        }
    ]
    rows.extend(
        {
            "name": "open_loop_slo",
            "dataset": r["dataset"],
            "samples_per_sec": r["rate"],
            "unit": "requests/s",
            "speedup": r["headroom"],
        }
        for r in measured["slo"]
    )
    rows.append(
        {
            "name": "lone_request_window",
            "dataset": DATASET,
            "samples_per_sec": 1e3 / measured["lone"]["p50_ms"],
            "unit": "requests/s",
            "speedup": measured["lone"]["headroom"],
        }
    )
    return rows


def test_serving_throughput(benchmark, bench_seed, write_report, write_bench_json):
    """Micro-batched serving is >= 5x the single-request path."""
    measured = benchmark.pedantic(
        lambda: _measure(bench_seed), rounds=1, iterations=1
    )
    write_report("serving_throughput", _render(measured))
    write_bench_json("serving", _bench_rows(measured))

    capacity = measured["capacity"]
    assert capacity["speedup"] >= MIN_SERVING_SPEEDUP, (
        f"micro-batched serving only {capacity['speedup']:.1f}x over "
        f"single-request scoring (need >= {MIN_SERVING_SPEEDUP:.0f}x)"
    )
    for row in measured["slo"]:
        assert row["p99_ms"] <= SLO_P99_MS, (
            f"{row['workload']}: p99 {row['p99_ms']:.2f}ms blew the "
            f"{SLO_P99_MS:g}ms SLO"
        )
