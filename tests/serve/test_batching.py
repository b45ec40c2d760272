"""Unit tests for the micro-batcher's accumulate/flush/shutdown mechanics."""

import asyncio
import math
import statistics
import time
import types

import numpy as np
import pytest

from repro.serve import batching
from repro.serve.batching import (
    BatchingConfig,
    MicroBatcher,
    ScorerClosedError,
)


def run(coro):
    return asyncio.run(coro)


class TestBatchingConfig:
    def test_rejects_invalid_knobs(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            BatchingConfig(max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_us"):
            BatchingConfig(max_wait_us=-1.0)
        with pytest.raises(ValueError, match="max_queue_size"):
            BatchingConfig(max_queue_size=-1)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("knob", ["max_batch_size", "max_wait_us", "max_queue_size"])
    def test_rejects_non_finite_knobs(self, knob, value):
        # max_wait_us=inf would hold a lone request forever.
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            BatchingConfig(**{knob: value})

    @pytest.mark.parametrize("value", ["4", None, [4]])
    @pytest.mark.parametrize("knob", ["max_batch_size", "max_wait_us", "max_queue_size"])
    def test_rejects_non_numeric_knobs_naming_the_field(self, knob, value):
        # Not a bare TypeError from math.isfinite: the error says which knob.
        with pytest.raises(ValueError, match=f"{knob} must be a number"):
            BatchingConfig(**{knob: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False])
    @pytest.mark.parametrize("knob", ["max_batch_size", "max_queue_size"])
    def test_rejects_non_integer_sizes(self, knob, value):
        # 2.5 would flush at 3 items and True would mean a batch of 1.
        with pytest.raises(ValueError, match=f"{knob} must be an integer"):
            BatchingConfig(**{knob: value})

    def test_accepts_numpy_integer_sizes(self):
        config = BatchingConfig(max_batch_size=np.int64(8), max_queue_size=np.int32(0))
        assert config.max_batch_size == 8

    def test_defaults(self):
        config = BatchingConfig()
        assert config.max_batch_size == 256
        assert config.max_wait_us > 0


class TestFlushTriggers:
    def test_idle_batcher_never_flushes_empty(self):
        """No requests => zero flushes; flush_fn is never called at all."""
        calls = []

        async def scenario():
            batcher = MicroBatcher(
                lambda items: calls.append(list(items)) or items,
                BatchingConfig(max_wait_us=100.0),
            )
            # Force the worker to exist, then idle well past the window.
            first = await batcher.submit("warm")
            assert first == "warm"
            await asyncio.sleep(0.02)  # 200x the wait window, zero traffic
            await batcher.close()
            return batcher.stats

        stats = run(scenario())
        assert stats.n_flushes == 1  # only the warm-up request flushed
        assert calls == [["warm"]]
        assert [] not in calls

    def test_single_in_flight_request_flushes_alone_on_timeout(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda items: [item * 10 for item in items],
                BatchingConfig(max_batch_size=64, max_wait_us=200.0),
            )
            result = await batcher.submit(7)
            await batcher.close()
            return result, batcher.stats

        result, stats = run(scenario())
        assert result == 70
        assert stats.n_requests == 1
        assert stats.n_timeout_flushes == 1
        assert stats.max_batch == 1

    def test_full_batch_flushes_without_waiting(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda items: [item + 1 for item in items],
                # A wait window so long a timeout flush would hang the test:
                # only the size trigger can flush the first batch.
                BatchingConfig(max_batch_size=4, max_wait_us=30_000_000.0),
            )
            results = await asyncio.gather(*(batcher.submit(i) for i in range(4)))
            stats_snapshot = batcher.stats.n_full_flushes
            await batcher.close()
            return results, stats_snapshot

        results, n_full = run(scenario())
        assert results == [1, 2, 3, 4]
        assert n_full == 1

    def test_backlog_is_drained_greedily_into_batches(self):
        """Queued items join a batch at zero cost (adaptive batching)."""

        async def scenario():
            batcher = MicroBatcher(
                lambda items: list(items),
                BatchingConfig(max_batch_size=32, max_wait_us=0.0),
            )
            results = await asyncio.gather(*(batcher.submit(i) for i in range(64)))
            await batcher.close()
            return results, batcher.stats

        results, stats = run(scenario())
        assert results == list(range(64))
        # With a zero wait window, multi-item batches can only have formed
        # from the backlog drain.
        assert stats.max_batch > 1


class _FakeClock:
    """Stands in for ``time.monotonic`` inside the batcher only."""

    def __init__(self):
        self.now = 100.0

    def monotonic(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _FakeClock()
    monkeypatch.setattr(
        batching, "time", types.SimpleNamespace(monotonic=fake.monotonic)
    )
    return fake


@pytest.fixture
def timers(monkeypatch, clock):
    """Record every timer the worker arms; each fires at once, by hand.

    A fired timer advances the fake clock past its timeout, as the event
    loop's rounded-up timers do.
    """
    armed = []

    async def fake_wait_for(awaitable, timeout):
        armed.append(timeout)
        awaitable.close()
        clock.now += timeout + 50e-6
        raise asyncio.TimeoutError

    monkeypatch.setattr(asyncio, "wait_for", fake_wait_for)
    return armed


async def _spin(passes: int = 50) -> None:
    """Run ``passes`` event-loop iterations without touching any clock."""
    for _ in range(passes):
        await asyncio.sleep(0)


def _recording_batcher(flushed: list, max_wait_us: float) -> MicroBatcher:
    return MicroBatcher(
        lambda items: flushed.append(list(items)) or items,
        BatchingConfig(max_batch_size=64, max_wait_us=max_wait_us),
    )


class TestBatchWindow:
    """The window ends at its deadline, measured on the batcher's clock."""

    def test_batch_never_flushes_before_its_deadline(self, clock, timers):
        flushed = []

        async def scenario():
            batcher = _recording_batcher(flushed, 500.0)
            pending = asyncio.ensure_future(batcher.submit("a"))
            await _spin()
            clock.now += 499e-6
            await _spin()
            early = list(flushed)
            clock.now += 2e-6
            result = await pending
            await batcher.close()
            return early, result, batcher.stats

        early, result, stats = run(scenario())
        assert early == []
        assert result == "a"
        assert flushed == [["a"]]
        assert stats.n_timeout_flushes == 1
        assert timers == []  # a sub-millisecond window arms no timer

    def test_item_arriving_while_yielding_joins_the_open_batch(self, clock, timers):
        flushed = []

        async def scenario():
            batcher = _recording_batcher(flushed, 200.0)
            first = asyncio.ensure_future(batcher.submit("a"))
            await _spin()  # the worker is now yielding inside the window
            second = asyncio.ensure_future(batcher.submit("b"))
            await _spin()
            assert flushed == []
            clock.now += 201e-6
            results = await asyncio.gather(first, second)
            await batcher.close()
            return results, batcher.stats

        results, stats = run(scenario())
        assert results == ["a", "b"]
        assert flushed == [["a", "b"]]
        assert stats.n_flushes == stats.n_timeout_flushes == 1
        assert timers == []

    def test_zero_window_flushes_at_once(self, clock, timers):
        flushed = []

        async def scenario():
            batcher = _recording_batcher(flushed, 0.0)
            pending = asyncio.ensure_future(batcher.submit("a"))
            await _spin(10)  # the clock never moves
            done = pending.done()
            await batcher.close()
            return done, batcher.stats

        done, stats = run(scenario())
        assert done
        assert flushed == [["a"]]
        assert stats.n_timeout_flushes == 1
        assert timers == []

    def test_long_window_arms_one_timer_then_yields(self, clock, timers):
        flushed = []

        async def scenario():
            batcher = _recording_batcher(flushed, 3000.0)
            pending = asyncio.ensure_future(batcher.submit("a"))
            await _spin()
            # One timer covers the window up to its last millisecond; the
            # worker then yields instead of arming another.
            armed = list(timers)
            waiting = not flushed
            await _spin()
            clock.now += 1e-3
            result = await pending
            await batcher.close()
            return armed, waiting, result

        armed, waiting, result = run(scenario())
        assert armed == [pytest.approx(2e-3)]
        assert waiting
        assert timers == armed
        assert result == "a"
        assert flushed == [["a"]]


class TestOneTimerPerWindow:
    def test_arrivals_inside_the_window_arm_no_new_timer(self, monkeypatch):
        """Real clock: five arrivals 1 ms apart share one 50 ms window and one
        timer; the worker does not wake (and re-arm) per arrival."""
        armed = []
        real_wait_for = asyncio.wait_for

        def counting_wait_for(awaitable, timeout):
            armed.append(timeout)
            return real_wait_for(awaitable, timeout)

        monkeypatch.setattr(asyncio, "wait_for", counting_wait_for)

        async def scenario():
            batcher = MicroBatcher(
                lambda items: list(items),
                BatchingConfig(max_batch_size=64, max_wait_us=50_000.0),
            )
            pending = []
            for i in range(5):
                pending.append(asyncio.ensure_future(batcher.submit(i)))
                await asyncio.sleep(0.001)
            results = await asyncio.gather(*pending)
            await batcher.close()
            return results, batcher.stats

        results, stats = run(scenario())
        assert results == list(range(5))
        assert stats.n_flushes == stats.n_timeout_flushes == 1
        assert len(armed) == 1


class TestWindowLatency:
    def test_lone_request_pays_the_window_not_a_timer_tick(self):
        """A 200 us window must not round up to the loop's 1 ms timer."""

        async def scenario():
            batcher = MicroBatcher(
                lambda items: list(items), BatchingConfig(max_wait_us=200.0)
            )
            await batcher.submit(0)  # start the worker
            latencies = []
            for i in range(60):
                start = time.perf_counter()
                await batcher.submit(i)
                latencies.append(time.perf_counter() - start)
            await batcher.close()
            return statistics.median(latencies)

        assert run(scenario()) < 0.8e-3


class TestMidFlushArrival:
    def test_request_arriving_mid_flush_lands_in_next_batch(self):
        flushed_batches = []

        async def scenario():
            gate = asyncio.Event()

            async def gated_flush(items):
                flushed_batches.append(list(items))
                if len(flushed_batches) == 1:
                    await gate.wait()  # hold the first flush open
                return [item * 2 for item in items]

            batcher = MicroBatcher(
                gated_flush, BatchingConfig(max_batch_size=8, max_wait_us=50.0)
            )
            first = asyncio.ensure_future(batcher.submit(1))
            while not flushed_batches:  # first flush is now in progress
                await asyncio.sleep(0.001)
            second = asyncio.ensure_future(batcher.submit(2))
            await asyncio.sleep(0.005)  # second arrives mid-flush
            gate.set()
            results = await asyncio.gather(first, second)
            await batcher.close()
            return results

        results = run(scenario())
        assert results == [2, 4]
        assert flushed_batches == [[1], [2]]


class TestBackpressure:
    def test_queue_full_suspends_submit_until_drained(self):
        async def scenario():
            gate = asyncio.Event()

            async def gated_flush(items):
                await gate.wait()
                return list(items)

            batcher = MicroBatcher(
                gated_flush,
                BatchingConfig(max_batch_size=1, max_wait_us=0.0, max_queue_size=1),
            )
            # First submission is dequeued by the worker and its flush
            # blocks on the gate; the second fills the queue; the third
            # must suspend inside queue.put (backpressure).
            first = asyncio.ensure_future(batcher.submit("a"))
            await asyncio.sleep(0.005)
            second = asyncio.ensure_future(batcher.submit("b"))
            await asyncio.sleep(0.005)
            third = asyncio.ensure_future(batcher.submit("c"))
            await asyncio.sleep(0.01)
            # Backpressured: c is not even *enqueued* yet (n_requests counts
            # accepted submissions post-put).
            backpressured = not third.done() and batcher.stats.n_requests == 2
            gate.set()
            results = await asyncio.gather(first, second, third)
            await batcher.close()
            return backpressured, results, batcher.stats.n_requests

        backpressured, results, n_requests = run(scenario())
        assert backpressured
        assert results == ["a", "b", "c"]
        assert n_requests == 3


    def test_burst_never_holds_more_than_the_queue_bound(self):
        """10x the bound submitted at once: accepted requests not yet handed
        to a flush never exceed ``max_queue_size``, and all complete."""
        bound = 8
        held = []

        async def scenario():
            gate = asyncio.Event()
            handed = 0

            async def gated_flush(items):
                nonlocal handed
                handed += len(items)
                await gate.wait()
                return list(items)

            batcher = MicroBatcher(
                gated_flush,
                BatchingConfig(max_batch_size=4, max_wait_us=0.0, max_queue_size=bound),
            )
            burst = [asyncio.ensure_future(batcher.submit(i)) for i in range(10 * bound)]

            async def watch():
                while not all(future.done() for future in burst):
                    held.append(batcher.stats.n_requests - handed)
                    await asyncio.sleep(0)

            watcher = asyncio.ensure_future(watch())
            await _spin()  # the first flush is held at the gate: the queue fills
            saturated = held[-1]
            gate.set()
            results = await asyncio.gather(*burst)
            await watcher
            await batcher.close()
            return saturated, results, batcher.stats.n_requests

        saturated, results, n_requests = run(scenario())
        assert saturated == bound
        assert max(held) <= bound
        assert results == list(range(10 * bound))
        assert n_requests == 10 * bound


class TestShutdown:
    def test_close_drains_pending_futures_with_real_results(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda items: [item + 100 for item in items],
                # Tiny batches + a huge window: without the drain path the
                # enqueued burst would sit for 30 s.
                BatchingConfig(max_batch_size=2, max_wait_us=30_000_000.0),
            )
            pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(9)]
            await asyncio.sleep(0)  # let the submissions enqueue
            await batcher.close()
            return await asyncio.gather(*pending), batcher.stats

        results, stats = run(scenario())
        assert results == [i + 100 for i in range(9)]
        assert stats.n_requests == 9
        assert stats.n_drain_flushes >= 1

    def test_close_under_backpressure_resolves_or_refuses_every_request(self):
        """Producers suspended on a full queue when close lands raise
        ScorerClosedError; accepted requests resolve; nothing hangs."""

        async def scenario():
            gate = asyncio.Event()

            async def gated_flush(items):
                await gate.wait()
                return [item * 2 for item in items]

            batcher = MicroBatcher(
                gated_flush,
                BatchingConfig(max_batch_size=2, max_wait_us=0.0, max_queue_size=2),
            )
            burst = [asyncio.ensure_future(batcher.submit(i)) for i in range(20)]
            await _spin()  # one flush held at the gate, a full queue, waiters
            closing = asyncio.ensure_future(batcher.close())
            await _spin()
            gate.set()
            await closing
            results = await asyncio.gather(*burst, return_exceptions=True)
            return results, batcher.stats

        results, stats = run(asyncio.wait_for(scenario(), 5))
        for i, result in enumerate(results):
            assert result == 2 * i or isinstance(result, ScorerClosedError)
        served = [r for r in results if not isinstance(r, ScorerClosedError)]
        assert served == [2 * i for i in range(stats.n_requests)]
        assert len(served) < len(results)

    def test_submit_after_close_raises(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: list(items))
            await batcher.submit(1)
            await batcher.close()
            assert batcher.closed
            with pytest.raises(ScorerClosedError):
                await batcher.submit(2)

        run(scenario())

    def test_close_is_idempotent(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: list(items))
            await batcher.submit(1)
            await batcher.close()
            await batcher.close()

        run(scenario())

    def test_close_without_any_submission(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: list(items))
            await batcher.close()
            assert batcher.closed

        run(scenario())


class TestFlushErrors:
    def test_flush_exception_propagates_to_every_request(self):
        async def scenario():
            def explode(items):
                raise RuntimeError("kernel on fire")

            batcher = MicroBatcher(
                explode, BatchingConfig(max_batch_size=4, max_wait_us=0.0)
            )
            pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(3)]
            results = await asyncio.gather(*pending, return_exceptions=True)
            await batcher.close()
            return results

        results = run(scenario())
        assert len(results) == 3
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_result_count_mismatch_is_an_error(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda items: [1],  # wrong length for multi-item batches
                BatchingConfig(max_batch_size=4, max_wait_us=0.0),
            )
            pending = [asyncio.ensure_future(batcher.submit(i)) for i in range(3)]
            results = await asyncio.gather(*pending, return_exceptions=True)
            await batcher.close()
            return results

        results = run(scenario())
        assert any(isinstance(r, RuntimeError) for r in results)

    def test_batcher_survives_a_failing_flush(self):
        """One poisoned batch must not kill the worker for later requests."""

        async def scenario():
            calls = {"n": 0}

            def flaky(items):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ValueError("first batch is poisoned")
                return [item * 3 for item in items]

            batcher = MicroBatcher(
                flaky, BatchingConfig(max_batch_size=8, max_wait_us=50.0)
            )
            with pytest.raises(ValueError):
                await batcher.submit(1)
            recovered = await batcher.submit(2)
            await batcher.close()
            return recovered

        assert run(scenario()) == 6
