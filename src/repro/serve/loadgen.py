"""Load generation for the serving stack: open/closed loops, SLO reports.

Two complementary drivers feed :class:`~repro.serve.scorer.AsyncScorer`:

* :func:`run_open_loop` -- a fleet of sensor clients firing at a fixed
  aggregate rate regardless of completions (open loop).  Latency is
  measured from each request's **scheduled** arrival time, not its actual
  dispatch time, so a stalled scorer inflates the percentiles instead of
  silently thinning the offered load (the coordinated-omission trap).
  This is the SLO view: "at R requests/s, what p99 do clients see?"
* :func:`run_closed_loop` -- N clients that each keep exactly one request
  in flight (closed loop).  This is the capacity view: the sustained
  throughput ceiling with the batcher kept saturated.

Both return a :class:`LoadReport` with percentile latencies, achieved
throughput and the scorer's flush accounting -- the rows of
``benchmarks/bench_serving_throughput.py`` and the nightly CI smoke
(``repro.cli serve smoke``).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.serve.batching import _TIMER_GRANULARITY_S, BatcherStats
from repro.serve.scorer import AsyncScorer


@dataclass(frozen=True)
class LoadReport:
    """Latency/throughput summary of one load-generation run.

    Latencies are in milliseconds.  ``offered_rate_hz`` is ``None`` for
    closed-loop runs (the clients, not a clock, set the pace).
    """

    n_requests: int
    n_errors: int
    duration_s: float
    offered_rate_hz: float | None
    throughput_hz: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    batcher: BatcherStats

    def to_dict(self) -> dict:
        """JSON-ready rendering (CI smoke artifact, bench rows)."""
        return {
            "n_requests": self.n_requests,
            "n_errors": self.n_errors,
            "duration_s": self.duration_s,
            "offered_rate_hz": self.offered_rate_hz,
            "throughput_hz": self.throughput_hz,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "batching": {
                "n_flushes": self.batcher.n_flushes,
                "n_full_flushes": self.batcher.n_full_flushes,
                "n_timeout_flushes": self.batcher.n_timeout_flushes,
                "n_drain_flushes": self.batcher.n_drain_flushes,
                "max_batch": self.batcher.max_batch,
                "mean_batch": self.batcher.mean_batch,
            },
        }

    def summary(self) -> str:
        """One human-readable line (CLI smoke output)."""
        offered = (
            f"offered {self.offered_rate_hz:.0f}/s, "
            if self.offered_rate_hz is not None
            else ""
        )
        return (
            f"{self.n_requests} requests in {self.duration_s:.2f}s "
            f"({offered}achieved {self.throughput_hz:.0f}/s), "
            f"p50 {self.p50_ms:.3f}ms p95 {self.p95_ms:.3f}ms "
            f"p99 {self.p99_ms:.3f}ms, mean batch "
            f"{self.batcher.mean_batch:.1f}, errors {self.n_errors}"
        )


def _report(
    latencies_s: list[float],
    n_errors: int,
    duration_s: float,
    offered_rate_hz: float | None,
    stats: BatcherStats,
) -> LoadReport:
    if not latencies_s:
        raise ValueError("load run completed zero requests; nothing to report")
    latencies_ms = np.asarray(latencies_s) * 1e3
    duration_s = max(duration_s, 1e-9)
    return LoadReport(
        n_requests=len(latencies_s),
        n_errors=n_errors,
        duration_s=duration_s,
        offered_rate_hz=offered_rate_hz,
        throughput_hz=len(latencies_s) / duration_s,
        p50_ms=float(np.percentile(latencies_ms, 50)),
        p95_ms=float(np.percentile(latencies_ms, 95)),
        p99_ms=float(np.percentile(latencies_ms, 99)),
        mean_ms=float(np.mean(latencies_ms)),
        max_ms=float(np.max(latencies_ms)),
        batcher=stats,
    )


async def run_open_loop(
    scorer: AsyncScorer,
    rows: np.ndarray,
    rate_hz: float,
    *,
    duration_s: float | None = None,
    n_requests: int | None = None,
) -> LoadReport:
    """Replay ``rows`` at a fixed aggregate ``rate_hz``, open loop.

    Exactly one of ``duration_s`` / ``n_requests`` bounds the run.  Request
    ``i`` is *scheduled* at ``start + i / rate_hz`` and replays row
    ``i % len(rows)`` (a fleet of sensors cycling through the captured
    stream); its latency runs from that scheduled instant to completion,
    so queueing delay from a scorer that cannot keep up is charged to the
    requests instead of being omitted.  Requests leave when they are due, not
    on the event loop's millisecond timer grid: a timer covers a wait only up
    to its last millisecond, and the generator yields through the rest.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or not len(rows):
        raise ValueError("rows must be a non-empty (n_samples, n_features) matrix")
    if not (math.isfinite(rate_hz) and rate_hz > 0):
        raise ValueError(f"rate_hz must be a finite number > 0, got {rate_hz!r}")
    if duration_s is not None and not (math.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration_s must be a finite number > 0, got {duration_s!r}")
    if (duration_s is None) == (n_requests is None):
        raise ValueError("bound the run with exactly one of duration_s / n_requests")
    if n_requests is None:
        n_requests = max(1, int(round(duration_s * rate_hz)))

    interval = 1.0 / rate_hz
    latencies: list[float] = []
    errors = 0

    async def fire(row: np.ndarray, scheduled: float) -> None:
        nonlocal errors
        try:
            await scorer.score(row)
        except Exception:
            errors += 1
            return
        latencies.append(time.perf_counter() - scheduled)

    # Only in-flight requests stay referenced: holding every finished task
    # until the end would grow the heap, and the collector's pauses, with
    # the length of the run.  So the tail is awaited through a future the
    # last done callback resolves, not by gathering the tasks (a gather
    # keeps every task it was given until the last one finishes).
    loop = asyncio.get_running_loop()
    in_flight: set[asyncio.Task] = set()
    drained = loop.create_future()
    sent = False

    def release(task: asyncio.Task) -> None:
        in_flight.discard(task)
        if sent and not in_flight and not drained.done():
            drained.set_result(None)

    start = time.perf_counter()
    for i in range(n_requests):
        scheduled = start + i * interval
        delay = scheduled - time.perf_counter()
        while delay > 0:
            await asyncio.sleep(max(0.0, delay - _TIMER_GRANULARITY_S))
            delay = scheduled - time.perf_counter()
        task = loop.create_task(fire(rows[i % len(rows)], scheduled))
        in_flight.add(task)
        task.add_done_callback(release)
    sent = True
    if in_flight:
        await drained
    elapsed = time.perf_counter() - start
    return _report(latencies, errors, elapsed, rate_hz, scorer.stats)


async def run_closed_loop(
    scorer: AsyncScorer,
    rows: np.ndarray,
    *,
    n_clients: int,
    requests_per_client: int,
) -> LoadReport:
    """``n_clients`` concurrent clients, one request in flight each.

    Client ``c`` replays rows ``c, c + n_clients, c + 2*n_clients, ...``
    (cycling), issuing its next request as soon as the previous one
    completes -- the saturated-throughput view.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or not len(rows):
        raise ValueError("rows must be a non-empty (n_samples, n_features) matrix")
    if n_clients < 1 or requests_per_client < 1:
        raise ValueError("n_clients and requests_per_client must be >= 1")

    latencies: list[float] = []
    errors = 0

    async def client(index: int) -> None:
        nonlocal errors
        for step in range(requests_per_client):
            row = rows[(index + step * n_clients) % len(rows)]
            issued = time.perf_counter()
            try:
                await scorer.score(row)
            except Exception:
                errors += 1
                continue
            latencies.append(time.perf_counter() - issued)

    start = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(n_clients)))
    elapsed = time.perf_counter() - start
    return _report(latencies, errors, elapsed, None, scorer.stats)
