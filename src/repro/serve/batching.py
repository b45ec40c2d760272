"""Asyncio micro-batching: amortize per-call cost across concurrent requests.

:class:`MicroBatcher` is the generic accumulation engine under the serving
scorer (:mod:`repro.serve.scorer`).  Concurrent ``submit`` calls enqueue
items into a bounded :class:`asyncio.Queue`; a single worker task collects
them into batches that flush when either ``max_batch_size`` items have
accumulated or ``max_wait_us`` has elapsed since the batch opened, whichever
comes first.  One ``flush_fn(items)`` call services the whole batch and its
results are demultiplexed back to the per-item futures in order.

Design points worth knowing:

* **No empty flushes.**  The worker blocks on the queue while idle; a batch
  only opens when its first item arrives, and the deadline is measured from
  that arrival.  An idle batcher performs zero work.
* **Backpressure, not buffering.**  The queue is bounded
  (``max_queue_size``); when it is full, ``submit`` suspends in
  ``queue.put`` until the worker drains, so a slow flush function
  back-pressures producers instead of growing memory without bound.
* **Graceful shutdown.**  ``close()`` flushes everything already enqueued
  (pending futures resolve with real results), then fails any stragglers
  with :class:`ScorerClosedError`.  Submitting after close raises.
"""

from __future__ import annotations

import asyncio
import inspect
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence, Union

FlushFn = Callable[[list], Union[Sequence, Awaitable[Sequence]]]

#: Queue sentinel instructing the worker to drain and exit.
_CLOSE = object()

#: The event loop hands each timer wait to its selector in whole
#: milliseconds, rounded up (``math.ceil(timeout * 1e3)`` in
#: ``selectors``), so a timer can overshoot by up to this much: a 200 us
#: ``wait_for`` sleeps a full millisecond.  The worker (and the open-loop
#: load generator) arms a timer only for the part of a wait beyond this and
#: yields through the rest.
_TIMER_GRANULARITY_S = 1e-3


class ScorerClosedError(RuntimeError):
    """Raised by ``submit`` on a closed batcher and set on abandoned futures."""


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
        Bound of the submission queue (backpressure threshold).  0 means
        unbounded.
    """

    max_batch_size: int = 256
    max_wait_us: float = 200.0
    max_queue_size: int = 4096

    def __post_init__(self) -> None:
        for name in ("max_batch_size", "max_wait_us", "max_queue_size"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("max_batch_size", "max_queue_size"):
            value = getattr(self, name)
            # A fractional size would round up at the comparison; True is 1.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_us < 0:
            raise ValueError("max_wait_us must be >= 0")
        if self.max_queue_size < 0:
            raise ValueError("max_queue_size must be >= 0")


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
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.config.max_queue_size)
        self._worker: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # submission side
    # ------------------------------------------------------------------ #
    async def submit(self, item: Any) -> Any:
        """Enqueue ``item`` and await its result from the servicing flush.

        Suspends while the queue is full (backpressure).  Raises
        :class:`ScorerClosedError` when the batcher is already closed.
        """
        if self._closed:
            raise ScorerClosedError("cannot submit to a closed MicroBatcher")
        if self._worker is None:
            # Lazy start binds the worker to the caller's running loop.
            self._worker = asyncio.get_running_loop().create_task(self._run())
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((item, future))
        self.stats.n_requests += 1
        return await future

    async def close(self) -> None:
        """Flush all enqueued work, resolve every pending future, stop.

        Requests enqueued before ``close`` resolve with real results (the
        worker drains the queue in max-size batches); a racing ``submit``
        that loses to the sentinel fails with :class:`ScorerClosedError`.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._worker is None:
            self._fail_pending()
            return
        await self._queue.put((_CLOSE, None))
        await self._worker
        self._fail_pending()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun (submissions now raise)."""
        return self._closed

    def _fail_pending(self) -> None:
        """Fail any futures still sitting in the queue after the drain."""
        while True:
            try:
                item, future = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is _CLOSE or future is None:
                continue
            if not future.done():
                future.set_exception(
                    ScorerClosedError("MicroBatcher closed before this item flushed")
                )

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        max_wait_s = self.config.max_wait_us / 1e6
        max_size = self.config.max_batch_size
        while True:
            # Idle: block until a first item opens a batch (or close lands).
            item, future = await self._queue.get()
            if item is _CLOSE:
                await self._drain()
                return
            batch = [(item, future)]
            deadline = time.monotonic() + max_wait_s
            kind = "timeout"
            draining = False
            while len(batch) < max_size:
                # Greedy backlog drain first: items already queued join the
                # batch at zero cost, so under load batches form from the
                # backlog itself and the wait window only matters when the
                # queue runs dry (adaptive micro-batching).
                try:
                    item, future = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    if remaining <= _TIMER_GRANULARITY_S:
                        # Inside the last millisecond a timer would overshoot
                        # the deadline: yield to the producers and look again.
                        await asyncio.sleep(0)
                        continue
                    try:
                        item, future = await asyncio.wait_for(
                            self._queue.get(),
                            timeout=remaining - _TIMER_GRANULARITY_S,
                        )
                    except asyncio.TimeoutError:
                        continue
                if item is _CLOSE:
                    draining = True
                    kind = "drain"
                    break
                batch.append((item, future))
            else:
                kind = "full"
            await self._flush(batch, kind)
            if draining:
                await self._drain()
                return

    async def _drain(self) -> None:
        """Flush everything enqueued ahead of the close sentinel."""
        batch: list[tuple[Any, asyncio.Future]] = []
        while True:
            try:
                item, future = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is _CLOSE:
                continue
            batch.append((item, future))
            if len(batch) >= self.config.max_batch_size:
                await self._flush(batch, "drain")
                batch = []
        if batch:
            await self._flush(batch, "drain")

    async def _flush(self, batch: list, kind: str) -> None:
        if not batch:
            return
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
