"""Async micro-batching scorer: single-sample requests, one kernel call per flush.

:class:`AsyncScorer` is the serving front door.  Clients call
``await scorer.score(sample)`` with one normalized sensor sample; under the
hood a :class:`~repro.serve.batching.MicroBatcher` accumulates concurrent
requests, each flush stacks them into one matrix, converts it through the
ADC front end **once** (one vectorized ``quantize_array_to_levels`` call --
elementwise, so batching never changes a code), and scores the levels with
one call of the tree's bit-parallel kernel
(:class:`~repro.core.bitkernel.CompiledTreeKernel`, taken once at
construction from the tree's shared unary translation).  A flush of a few
rows runs on Python ``int`` bitsets, about a tenth of a millisecond for a
depth-8 tree.  Per-request labels are demultiplexed back to the callers'
futures.

Outputs are bit-identical to calling ``tree.predict_levels`` on each sample
alone, regardless of how requests interleave -- property-tested in
``tests/serve/test_scorer.py``.
"""

from __future__ import annotations

import math
from typing import Awaitable

import numpy as np

from repro.adc.thermometer import quantize_array_to_levels
from repro.core.unary_tree import translate
from repro.serve.batching import BatchingConfig, MicroBatcher
from repro.serve.registry import ModelArtifact


async def _raise(exc: Exception):
    raise exc


class AsyncScorer:
    """Score single samples through one batched kernel call per flush.

    Parameters
    ----------
    model:
        A promoted :class:`~repro.serve.registry.ModelArtifact` or a bare
        trained :class:`~repro.mltrees.tree.DecisionTree`.
    config:
        Accumulate/flush policy (see
        :class:`~repro.serve.batching.BatchingConfig`).

    Use as an async context manager so shutdown always drains in-flight
    requests::

        async with AsyncScorer(artifact) as scorer:
            label = await scorer.score(sample)
    """

    def __init__(
        self,
        model: ModelArtifact | object,
        config: BatchingConfig | None = None,
    ):
        if isinstance(model, ModelArtifact):
            self.tree = model.tree
            self.resolution_bits = model.resolution_bits
            self.model_name: str | None = f"{model.name}/v{model.version}"
        else:  # a bare trained DecisionTree
            self.tree = model
            self.resolution_bits = model.resolution_bits
            self.model_name = None
        self.n_features = self.tree.n_features
        self.kernel = translate(self.tree).kernel
        self._batcher = MicroBatcher(self._flush, config)

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def score(self, sample) -> Awaitable[int]:
        """Score one normalized ``(n_features,)`` sample; await it for its label.

        Returns the request's batcher future, so a request runs no coroutine
        of its own.  It resolves after the servicing flush: at low load a
        lone request waits about ``max_wait_us`` plus one flush; at overload,
        backpressure bounds it.  Every error, a malformed sample included,
        raises at the ``await``, so it never fails its neighbours in a gather.
        """
        try:
            row = self._as_row(sample)
        except (TypeError, ValueError) as exc:
            return _raise(exc)
        return self._batcher.submit(row)

    def score_one(self, sample) -> int:
        """Synchronous single-request reference path (no batching).

        Pays the full per-request cost -- one 1-row quantization and one
        1-row kernel call -- exactly what a naive request-per-call server
        would do.  The serving benchmark measures micro-batching speedups
        against this.  Bit-identical to :meth:`score`.
        """
        row = self._as_row(sample)[np.newaxis, :]
        levels = quantize_array_to_levels(row, self.resolution_bits)
        return int(self.kernel.predict_levels(levels)[0])

    def _as_row(self, sample) -> np.ndarray:
        # Checked per request, so a bad sample never fails a shared flush.
        row = np.asarray(sample, dtype=float)
        if row.shape != (self.n_features,):
            raise ValueError(
                f"expected a ({self.n_features},) sample, got shape {row.shape}"
            )
        # A finite sum proves every value finite (NaN and infinities propagate),
        # so only a bad or overflowing row pays for the elementwise check.
        if not math.isfinite(sum(row.tolist())) and not np.isfinite(row).all():
            raise ValueError(f"sample values must be finite, got {row.tolist()}")
        return row

    # ------------------------------------------------------------------ #
    # flush path (one batched kernel call)
    # ------------------------------------------------------------------ #
    def _flush(self, rows: list[np.ndarray]) -> list[int]:
        X = np.stack(rows)
        levels = quantize_array_to_levels(X, self.resolution_bits)
        return self.kernel.predict_levels(levels).tolist()

    # ------------------------------------------------------------------ #
    # lifecycle and introspection
    # ------------------------------------------------------------------ #
    async def close(self) -> None:
        """Drain in-flight requests, then reject further submissions."""
        await self._batcher.close()

    @property
    def closed(self) -> bool:
        return self._batcher.closed

    @property
    def stats(self):
        """Flush accounting (:class:`~repro.serve.batching.BatcherStats`)."""
        return self._batcher.stats

    async def __aenter__(self) -> "AsyncScorer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = self.model_name or type(self.tree).__name__
        return f"AsyncScorer(model={target!r})"
