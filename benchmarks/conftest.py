"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The heavy
computation (running the co-design framework over the eight benchmarks) is
done once per pytest session through ``repro.analysis.experiments`` (which
caches per configuration) and shared by all benchmark files; the
``benchmark`` fixture then measures the run and each file writes the rendered
rows both to stdout and to ``benchmarks/results/<name>.txt``.

Environment knobs
-----------------
``REPRO_BENCH_FAST=1``
    Restrict the suite to the four small benchmarks (quick smoke runs).
``REPRO_BENCH_SEED=<int>``
    Change the global seed (default 0).
``REPRO_BENCH_JOBS=<int>``
    Worker processes for the suite (default serial; 0 = one per CPU).
``REPRO_BENCH_CACHE_DIR=<path>``
    Location of the on-disk result store (default: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro/results``); a CI job can point this at a cached
    workspace directory so reruns skip the sweep entirely.
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.analysis.experiments import run_benchmark_suite
from repro.core.store import ResultStore

RESULTS_DIR = Path(__file__).parent / "results"

#: Schema version of the ``BENCH_<name>.json`` perf-trajectory files.  Bump
#: only when a field is renamed or removed; adding fields is backwards
#: compatible (``benchmarks/check_regression.py`` reads by key).
BENCH_SCHEMA_VERSION = 1


def _git_sha() -> str:
    """Commit being measured: CI's GITHUB_SHA, else the local HEAD."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _fast_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FAST", "0") == "1"


def _seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "0"))


def _jobs() -> int | None:
    raw = os.environ.get("REPRO_BENCH_JOBS")
    return int(raw) if raw else None


def _store() -> ResultStore:
    """``$REPRO_BENCH_CACHE_DIR``, else the default result store location."""
    return ResultStore(os.environ.get("REPRO_BENCH_CACHE_DIR") or None)


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """Global seed of the benchmark run."""
    return _seed()


@pytest.fixture(scope="session")
def suite_results():
    """Co-design results over the benchmark suite (no approximate baseline)."""
    return run_benchmark_suite(
        seed=_seed(),
        include_approximate_baseline=False,
        fast=_fast_mode(),
        jobs=_jobs(),
        store=_store(),
    )


@pytest.fixture(scope="session")
def suite_results_with_approx():
    """Co-design results including the approximate baseline [7] (Table II)."""
    return run_benchmark_suite(
        seed=_seed(),
        include_approximate_baseline=True,
        fast=_fast_mode(),
        jobs=_jobs(),
        store=_store(),
    )


@pytest.fixture(scope="session")
def write_bench_json():
    """Write a machine-readable ``BENCH_<name>.json`` perf-trajectory file.

    Each row is one measured workload::

        {"name": ..., "dataset": ..., "samples_per_sec": ..., "unit": ...,
         "speedup": ...}

    ``samples_per_sec`` is the absolute throughput of the fast path (in
    ``unit``; trials/s for Monte-Carlo rows), ``speedup`` its ratio over the
    reference path measured in the same process.  The envelope stamps the
    schema version, the git sha and the UTC date so nightly CI artifacts form
    a comparable trajectory; ``benchmarks/check_regression.py`` gates the
    ``speedup`` fields against ``benchmarks/baselines.json``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _write(name: str, rows: list[dict]) -> Path:
        path = RESULTS_DIR / f"BENCH_{name}.json"
        payload = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "bench": name,
            "git_sha": _git_sha(),
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "rows": rows,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\n=== BENCH_{name}.json ===\n{json.dumps(payload, indent=2, sort_keys=True)}")
        return path

    return _write


@pytest.fixture(scope="session")
def write_report():
    """Write a rendered report to benchmarks/results/ and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _write(name: str, text: str) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}")
        return path

    return _write
