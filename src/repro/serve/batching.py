"""Asyncio micro-batching: amortize per-call cost across concurrent requests.

:class:`MicroBatcher` is the generic accumulation engine under the serving
scorer (:mod:`repro.serve.scorer`).  ``submit(item)`` appends an
``(item, future)`` pair to a bounded deque and hands the caller the future;
a single worker task flushes the deque in batches, when either
``max_batch_size`` items have accumulated or ``max_wait_us`` has elapsed
since the batch opened, whichever comes first.  One ``flush_fn(items)``
call services the whole batch and its results are demultiplexed back to the
per-item futures in order.

Design points worth knowing:

* **One wake-up per batch.**  An accepted request costs one future and one
  append.  The worker sleeps until the first item reaches an idle batcher,
  a submission fills the batch, the window ends or ``close()`` is called,
  and then takes up to ``max_batch_size`` items straight off the deque, so
  a backlog forms full batches at once.  An idle batcher performs zero work.
* **Backpressure, not buffering.**  The deque is bounded
  (``max_queue_size``); when it is full, ``submit`` returns a coroutine that
  suspends until a flush makes room, so a slow flush function back-pressures
  producers instead of growing memory without bound.
* **Graceful shutdown.**  ``close()`` flushes everything accepted before it
  in ``max_batch_size`` "drain" batches (pending futures resolve with real
  results), then stops the worker.  Submitting after close, or waiting on a
  full queue when it lands, raises :class:`ScorerClosedError`.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence, Union

FlushFn = Callable[[list], Union[Sequence, Awaitable[Sequence]]]

#: The event loop hands each timer wait to its selector in whole
#: milliseconds, rounded up (``math.ceil(timeout * 1e3)`` in
#: ``selectors``), so a timer can overshoot by up to this much: a 200 us
#: ``wait_for`` sleeps a full millisecond.  The worker (and the open-loop
#: load generator) arms a timer only for the part of a wait beyond this and
#: yields through the rest.
_TIMER_GRANULARITY_S = 1e-3


class ScorerClosedError(RuntimeError):
    """Raised where a submission to a closed batcher, or one refused by close, is awaited."""


@dataclass(frozen=True)
class BatchingConfig:
    """Knobs of the accumulate/flush policy.

    Attributes
    ----------
    max_batch_size:
        Flush as soon as this many items have accumulated.  The kernel
        evaluates batches of serving size on bitsets exactly as wide as the
        batch, so no size wastes lanes.
    max_wait_us:
        Flush an incomplete batch once its *first* item has waited this many
        microseconds -- the latency bound a lone request pays at low load.
        The window ends when configured, not on the event loop's millisecond
        timer grid: the worker yields through the final millisecond, which
        keeps the loop thread busy for at most 1 ms per open batch.
    max_queue_size:
        Bound on accepted requests not yet handed to a flush (backpressure
        threshold).  0 means unbounded.  A bound below ``max_batch_size``
        also caps the batch: a full queue flushes as a full batch.
    """

    max_batch_size: int = 256
    max_wait_us: float = 200.0
    max_queue_size: int = 4096

    def __post_init__(self) -> None:
        for name, low in (("max_batch_size", 1), ("max_wait_us", 0), ("max_queue_size", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            # A fractional size would round up at the comparison; True is 1.
            sized = name != "max_wait_us"
            if sized and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}")


@dataclass
class BatcherStats:
    """Accumulated flush accounting of one :class:`MicroBatcher`."""

    n_requests: int = 0
    n_flushes: int = 0
    n_full_flushes: int = 0
    n_timeout_flushes: int = 0
    n_drain_flushes: int = 0
    max_batch: int = 0
    _batched: int = field(default=0, repr=False)

    @property
    def mean_batch(self) -> float:
        """Average items per flush (0.0 before the first flush)."""
        return self._batched / self.n_flushes if self.n_flushes else 0.0

    def record_flush(self, size: int, kind: str) -> None:
        """Account one flush of ``size`` items (kind: full/timeout/drain)."""
        self.n_flushes += 1
        self._batched += size
        self.max_batch = max(self.max_batch, size)
        if kind == "full":
            self.n_full_flushes += 1
        elif kind == "timeout":
            self.n_timeout_flushes += 1
        else:
            self.n_drain_flushes += 1


class MicroBatcher:
    """Accumulate awaitable submissions into bounded flushes of ``flush_fn``.

    Parameters
    ----------
    flush_fn:
        Callable receiving the list of batched items and returning one
        result per item, in order.  May be sync (runs on the event loop --
        fine for numpy kernels that release the GIL quickly) or async.
    config:
        Accumulate/flush policy; see :class:`BatchingConfig`.

    Examples
    --------
    >>> async def demo():
    ...     batcher = MicroBatcher(lambda xs: [x * 2 for x in xs])
    ...     doubled = await asyncio.gather(*(batcher.submit(i) for i in range(5)))
    ...     await batcher.close()
    ...     return doubled
    >>> asyncio.run(demo())
    [0, 2, 4, 6, 8]
    """

    def __init__(self, flush_fn: FlushFn, config: BatchingConfig | None = None):
        self.flush_fn = flush_fn
        self.config = config if config is not None else BatchingConfig()
        self.stats = BatcherStats()
        self._pending: deque[tuple[Any, asyncio.Future]] = deque()
        # Items the fast path of ``submit`` admits: 0 before the worker runs
        # and after close, so the slow path starts the worker or raises.
        self._limit: float = 0
        self._wake_at = 0  # the deque length a submission wakes the worker at
        self._wake = asyncio.Event()
        self._room = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._worker: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # submission side
    # ------------------------------------------------------------------ #
    def submit(self, item: Any) -> Awaitable[Any]:
        """Accept ``item``; return an awaitable of its result from the servicing flush.

        While the queue has room this is the item's future itself: one
        append, no coroutine.  Otherwise it is a coroutine that suspends
        until a flush makes room (backpressure), or raises
        :class:`ScorerClosedError` when the batcher is closed.  Either way
        errors surface where the result is awaited.
        """
        pending = self._pending
        if len(pending) < self._limit:
            future = self._loop.create_future()
            pending.append((item, future))
            self.stats.n_requests += 1
            if len(pending) == self._wake_at:
                self._wake.set()
            return future
        return self._submit_when_room(item)

    async def _submit_when_room(self, item: Any) -> Any:
        if self._worker is None and not self._closed:
            # Lazy start binds the worker to the caller's running loop.
            self._loop = asyncio.get_running_loop()
            self._worker = self._loop.create_task(self._run())
            self._limit = self.config.max_queue_size or math.inf
        while len(self._pending) >= self._limit:
            if self._closed:
                raise ScorerClosedError("cannot submit to a closed MicroBatcher")
            self._room.clear()
            await self._room.wait()
        return await self.submit(item)

    async def close(self) -> None:
        """Flush all accepted work, resolve every pending future, stop.

        Requests accepted before ``close`` resolve with real results (the
        worker flushes them in max-size batches); producers still waiting
        on a full queue, and later submissions, raise
        :class:`ScorerClosedError`.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._limit = 0
        self._wake.set()
        self._room.set()
        if self._worker is not None:
            await self._worker

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun (submissions now raise)."""
        return self._closed

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        max_wait_s = self.config.max_wait_us / 1e6
        # A full queue is a full batch: no submission can grow it further.
        full_at = min(self.config.max_batch_size, self.config.max_queue_size or math.inf)
        pending = self._pending
        while pending or not self._closed:
            if not pending:
                # Idle: sleep until a first item opens a batch (or close lands).
                await self._sleep_until(1)
                continue
            # Items already queued are in the batch at zero cost, so under
            # load batches form from the backlog itself and the window only
            # matters when the queue runs dry (adaptive micro-batching).
            deadline = time.monotonic() + max_wait_s
            while len(pending) < full_at and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if remaining <= _TIMER_GRANULARITY_S:
                    # Inside the last millisecond a timer would overshoot
                    # the deadline: yield to the producers and look again.
                    await asyncio.sleep(0)
                else:
                    await self._sleep_until(full_at, remaining - _TIMER_GRANULARITY_S)
            await self._flush(
                "drain" if self._closed else "full" if len(pending) >= full_at else "timeout"
            )

    async def _sleep_until(self, count: int, timeout: float | None = None) -> None:
        """Sleep until ``count`` items are pending, ``close()``, or ``timeout`` s."""
        self._wake_at = count
        self._wake.clear()
        woken = self._wake.wait()
        with contextlib.suppress(asyncio.TimeoutError):
            await (woken if timeout is None else asyncio.wait_for(woken, timeout=timeout))
        self._wake_at = 0

    async def _flush(self, kind: str) -> None:
        """Flush up to ``max_batch_size`` items off the front of the deque."""
        pending = self._pending
        batch = [pending.popleft() for _ in range(min(len(pending), self.config.max_batch_size))]
        self._room.set()
        items = [item for item, _ in batch]
        try:
            results = self.flush_fn(items)
            if inspect.isawaitable(results):
                results = await results
            if len(results) != len(items):
                raise RuntimeError(
                    f"flush_fn returned {len(results)} results for "
                    f"{len(items)} items"
                )
        except BaseException as exc:  # noqa: BLE001 - routed to the futures
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            if isinstance(exc, (KeyboardInterrupt, SystemExit, asyncio.CancelledError)):
                raise
            return
        self.stats.record_flush(len(batch), kind)
        for (_, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)
