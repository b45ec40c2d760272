"""Experiment execution backends: serial and process-parallel job fan-out.

The co-design flow is embarrassingly parallel: every design point of the
depth x tau grid (49 independent trainings per benchmark with the paper's
grid), every benchmark's reference designs and every Monte-Carlo unit is an
independent job.  The suite, shards, surfaces, variation sweeps and search
studies submit them through one store fan-out
(:func:`~repro.analysis.experiments._resolve_units`), which runs its jobs
on the small :class:`Executor` abstraction defined here, so callers pick
the backend once:

* :class:`SerialExecutor` -- run jobs in-process, in submission order.  The
  default everywhere; zero overhead and trivially deterministic.
* :class:`ParallelExecutor` -- fan jobs out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with ``jobs`` workers.

Because every job is a pure function of its arguments (all trainers are
seeded), both backends produce **bit-identical results in the same order**;
only the wall-clock changes.  Jobs must be picklable: module-level functions
with picklable arguments.

Examples
--------
>>> from repro.core.executor import get_executor
>>> with get_executor(jobs=4) as executor:
...     results = executor.map(some_module_level_fn, [(arg1a, arg2a), (arg1b, arg2b)])
"""

from __future__ import annotations

import abc
import os
import warnings
from collections.abc import Callable, Iterable, Sequence


class Executor(abc.ABC):
    """Runs a batch of independent jobs and returns results in order.

    A *job* is ``(fn, args)`` with ``fn`` a module-level callable; ``map``
    applies ``fn`` to every argument tuple and returns the results in the
    submission order regardless of completion order, so serial and parallel
    backends are interchangeable.
    """

    #: Number of worker processes the backend uses (1 for serial).
    jobs: int = 1

    @abc.abstractmethod
    def map(self, fn: Callable, tasks: Iterable[Sequence]) -> list:
        """Apply ``fn`` to every argument tuple in ``tasks``, in order."""

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process executor: runs every job sequentially."""

    jobs = 1

    def map(self, fn: Callable, tasks: Iterable[Sequence]) -> list:
        """Run ``fn(*args)`` for every argument tuple, in order."""
        return [fn(*args) for args in tasks]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Process-pool executor fanning jobs out over ``jobs`` workers.

    Results are returned in submission order.  When the platform cannot
    start a process pool (some sandboxes lack semaphore support), the
    executor degrades to serial execution with a warning instead of
    failing, so scripted runs keep working everywhere.

    Parameters
    ----------
    jobs:
        Number of worker processes.  ``None`` or ``0`` selects
        ``os.cpu_count()``.
    """

    def __init__(self, jobs: int | None = None):
        if jobs is None or jobs == 0:
            jobs = os.cpu_count() or 1
        if jobs < 0:
            raise ValueError("jobs must be a positive worker count (or 0 for auto)")
        self.jobs = jobs
        self._pool = None
        self._fallback = None

    def _ensure_pool(self):
        if self._pool is None and self._fallback is None:
            from concurrent.futures import ProcessPoolExecutor

            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (OSError, ImportError, NotImplementedError) as exc:
                warnings.warn(
                    f"cannot start a process pool ({exc!r}); "
                    "falling back to serial execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self._fallback = SerialExecutor()
        return self._pool

    def map(self, fn: Callable, tasks: Iterable[Sequence]) -> list:
        """Run ``fn(*args)`` for every argument tuple across the pool."""
        pool = self._ensure_pool()
        if pool is None:
            return self._fallback.map(fn, tasks)
        futures = [pool.submit(fn, *args) for args in tasks]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelExecutor(jobs={self.jobs})"


def get_executor(jobs: int | None = None) -> Executor:
    """Build the executor matching a ``--jobs`` CLI value.

    ``None`` or ``1`` selects the :class:`SerialExecutor`; any other value
    (including ``0`` for "one worker per CPU") selects a
    :class:`ParallelExecutor`.
    """
    if jobs is None or jobs == 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)
