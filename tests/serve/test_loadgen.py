"""Tests for the open/closed-loop load generators and their reports."""

import asyncio
import math
import time
import weakref

import numpy as np
import pytest

from repro.serve import loadgen
from repro.serve.batching import BatcherStats
from repro.serve.loadgen import LoadReport, run_closed_loop, run_open_loop
from repro.serve.scorer import AsyncScorer

N_FEATURES = 5  # matches the small_tree conftest fixture


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def rows():
    rng = np.random.default_rng(29)
    return rng.random((128, N_FEATURES))


class _HoldCountingScorer:
    """Stub scorer counting finished request tasks that are still alive.

    Every 250th request looks up the tasks already finished when it began;
    one loop pass later their done callbacks have run, so only a reference
    held by the load generator keeps one alive.  Each request blocks the
    loop for ``busy_s`` first, and every 100th one fails.
    """

    def __init__(self, busy_s: float = 0.0):
        self.stats = BatcherStats()
        self.busy_s = busy_s
        self.tasks = []
        self.max_held = 0

    async def score(self, row):
        if self.busy_s:
            time.sleep(self.busy_s)
        index = len(self.tasks)
        self.tasks.append(weakref.ref(asyncio.current_task()))
        done = []
        if index % 250 == 0:
            done = [ref for ref in self.tasks if _finished(ref)]
        await asyncio.sleep(0)
        held = sum(ref() is not None for ref in done)
        self.max_held = max(self.max_held, held)
        if index % 100 == 0:
            raise RuntimeError("stub failure")
        return 0


def _finished(ref) -> bool:
    task = ref()
    return task is not None and task.done()


class TestOpenLoop:
    def test_request_count_bound(self, small_tree, rows):
        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                return await run_open_loop(
                    scorer, rows, rate_hz=5000.0, n_requests=50
                )

        report = run(scenario())
        assert report.n_requests == 50
        assert report.n_errors == 0
        assert report.offered_rate_hz == 5000.0
        assert report.throughput_hz > 0
        assert report.p50_ms <= report.p95_ms <= report.p99_ms <= report.max_ms

    def test_duration_bound(self, small_tree, rows):
        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                return await run_open_loop(
                    scorer, rows, rate_hz=1000.0, duration_s=0.05
                )

        report = run(scenario())
        # duration * rate requests are scheduled up front (open loop).
        assert report.n_requests == 50

    def test_latency_charged_from_scheduled_arrival(self, small_tree, rows):
        """Coordinated-omission safety: a scorer that stalls accumulates
        latency for every scheduled-but-unserved request, so the late
        requests' percentiles dominate rather than vanish."""

        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                # Far beyond sustainable single-flush pacing: most requests
                # queue behind earlier flushes and are charged the wait.
                return await run_open_loop(
                    scorer, rows, rate_hz=200_000.0, n_requests=400
                )

        report = run(scenario())
        assert report.n_requests == 400
        # With 400 requests scheduled inside 2ms, the last request's
        # latency must include its queueing delay, so max >= p50.
        assert report.max_ms >= report.p50_ms

    def test_finished_requests_are_not_held(self, rows):
        """A finished request's task is released while the run goes on."""
        scorer = _HoldCountingScorer()
        report = run(
            run_open_loop(scorer, rows, rate_hz=20_000.0, n_requests=5000)
        )
        assert report.n_requests + report.n_errors == 5000
        assert report.n_errors == 50
        assert len(scorer.tasks) == 5000
        assert scorer.max_held == 0

    def test_finished_requests_are_not_held_behind_a_slow_scorer(self, rows):
        """A scorer slower than the rate makes the generator send the tail
        without yielding; the requests finishing after that are released
        too, not held until the last one finishes."""
        scorer = _HoldCountingScorer(busy_s=1e-4)
        report = run(
            run_open_loop(scorer, rows, rate_hz=20_000.0, n_requests=5000)
        )
        assert report.n_requests + report.n_errors == 5000
        assert scorer.max_held == 0

    def test_validation_errors(self, small_tree, rows):
        async def with_scorer(coro_fn):
            async with AsyncScorer(small_tree) as scorer:
                await coro_fn(scorer)

        with pytest.raises(ValueError, match="exactly one"):
            run(with_scorer(lambda s: run_open_loop(s, rows, 100.0)))
        with pytest.raises(ValueError, match="exactly one"):
            run(
                with_scorer(
                    lambda s: run_open_loop(
                        s, rows, 100.0, duration_s=1.0, n_requests=5
                    )
                )
            )
        for rate in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="rate_hz"):
                run(with_scorer(lambda s: run_open_loop(s, rows, rate, n_requests=5)))
        for duration in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="duration_s"):
                run(with_scorer(lambda s: run_open_loop(s, rows, 100.0, duration_s=duration)))
        with pytest.raises(ValueError, match="non-empty"):
            run(
                with_scorer(
                    lambda s: run_open_loop(
                        s, np.empty((0, N_FEATURES)), 100.0, n_requests=5
                    )
                )
            )

    def test_paces_past_the_millisecond_timer_grid(self, rows, monkeypatch):
        """At 2 000 req/s requests are 0.5 ms apart, below the event loop's
        1 ms timer resolution: a timer that short would fire up to a whole
        millisecond late, so the generator yields instead of arming one."""
        sleeps = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            sleeps.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        class StubScorer:
            stats = BatcherStats()

            async def score(self, row):
                return 0

        monkeypatch.setattr(loadgen.asyncio, "sleep", recording_sleep)
        report = run(run_open_loop(StubScorer(), rows, rate_hz=2000.0, n_requests=200))
        assert report.n_requests == 200
        positive = [delay for delay in sleeps if delay > 0]
        assert all(delay >= 1e-3 for delay in positive), positive


class TestClosedLoop:
    def test_every_client_completes_its_quota(self, small_tree, rows):
        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                return await run_closed_loop(
                    scorer, rows, n_clients=16, requests_per_client=5
                )

        report = run(scenario())
        assert report.n_requests == 16 * 5
        assert report.n_errors == 0
        assert report.offered_rate_hz is None  # clients set the pace
        assert report.batcher.n_requests == 16 * 5

    def test_validation_errors(self, small_tree, rows):
        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                with pytest.raises(ValueError, match=">= 1"):
                    await run_closed_loop(
                        scorer, rows, n_clients=0, requests_per_client=5
                    )
                with pytest.raises(ValueError, match="non-empty"):
                    await run_closed_loop(
                        scorer,
                        np.empty((0, N_FEATURES)),
                        n_clients=2,
                        requests_per_client=2,
                    )

        run(scenario())


class TestLoadReport:
    def _report(self, small_tree, rows):
        async def scenario():
            async with AsyncScorer(small_tree) as scorer:
                return await run_open_loop(
                    scorer, rows, rate_hz=5000.0, n_requests=30
                )

        return run(scenario())

    def test_to_dict_is_json_ready(self, small_tree, rows):
        payload = self._report(small_tree, rows).to_dict()
        assert payload["n_requests"] == 30
        assert set(payload["batching"]) == {
            "n_flushes",
            "n_full_flushes",
            "n_timeout_flushes",
            "n_drain_flushes",
            "max_batch",
            "mean_batch",
        }
        import json

        json.dumps(payload)  # must serialize without custom encoders

    def test_summary_is_one_line(self, small_tree, rows):
        summary = self._report(small_tree, rows).summary()
        assert "\n" not in summary
        assert "p99" in summary
        assert "requests" in summary

    def test_empty_run_is_an_error(self, small_tree):
        from repro.serve.batching import BatcherStats
        from repro.serve.loadgen import _report

        with pytest.raises(ValueError, match="zero requests"):
            _report([], 0, 1.0, None, BatcherStats())

    def test_report_is_frozen(self, small_tree, rows):
        report = self._report(small_tree, rows)
        with pytest.raises(AttributeError):
            report.n_requests = 0
        assert isinstance(report, LoadReport)
