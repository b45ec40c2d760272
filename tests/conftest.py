"""Shared fixtures for the test suite.

Fixtures deliberately use small datasets and shallow trees so the whole unit
test suite stays fast; the heavier end-to-end runs live in
``tests/test_integration.py`` and the benchmarks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.two_level import SumOfProducts
from repro.datasets.synthetic import make_classification_blobs
from repro.mltrees.cart import CARTTrainer
from repro.mltrees.quantize import quantize_dataset
from repro.mltrees.evaluation import train_test_split
from repro.pdk.egfet import default_technology

#: Test files that exercise the full stack end-to-end (or spawn worker
#: processes); they are auto-marked ``slow`` and skipped by the tier-1 PR
#: gate (``pytest -m "not slow"``), which keeps the gate in the minutes
#: range.  The nightly CI job and a plain ``pytest`` run include them.
_SLOW_FILES = {"test_integration.py", "test_paper_claims.py"}


def pytest_addoption(parser):
    """``--run-nightly`` opts into the ``nightly``-marked validation tests.

    The runslow pattern from the pytest docs: nightly tests (multi-benchmark
    Monte-Carlo validation, hours-of-compute claims) are *skipped* by
    default -- a plain ``pytest`` run, and therefore the tier-1 verify
    command, never pays for them -- and the nightly CI job runs them with
    ``pytest -m nightly --run-nightly``.
    """
    parser.addoption(
        "--run-nightly",
        action="store_true",
        default=False,
        help="run tests marked 'nightly' (benchmark-wide Monte-Carlo validation)",
    )


def pytest_collection_modifyitems(config, items):
    """Auto-apply the ``fast``/``slow`` markers registered in pyproject.toml.

    Tests may also opt in explicitly with ``@pytest.mark.slow``; every test
    without a ``slow`` marker is marked ``fast``.  Marker audit: ``nightly``
    implies ``slow`` (so the ``-m "not slow"`` PR gate can never pick a
    nightly test up), and nightly tests additionally skip unless
    ``--run-nightly`` is given.
    """
    run_nightly = config.getoption("--run-nightly")
    skip_nightly = pytest.mark.skip(reason="nightly validation: pass --run-nightly")
    for item in items:
        if item.path.name in _SLOW_FILES:
            item.add_marker(pytest.mark.slow)
        if "nightly" in item.keywords:
            item.add_marker(pytest.mark.slow)
            if not run_nightly:
                item.add_marker(skip_nightly)
        if "slow" in item.keywords:
            continue
        item.add_marker(pytest.mark.fast)


@pytest.fixture(autouse=True)
def _isolated_default_dirs(tmp_path_factory, monkeypatch):
    """Point the default result store and model registry at per-test temp dirs.

    A test that reaches a default location (a CLI command without
    ``--cache-dir``, a registry without ``--registry-dir``) must never read
    another run's entries or leave files in the user's ``~/.cache/repro``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache")))
    monkeypatch.setenv(
        "REPRO_REGISTRY_DIR", str(tmp_path_factory.mktemp("repro-registry"))
    )


@pytest.fixture(scope="session")
def technology():
    """Default calibrated EGFET technology."""
    return default_technology()


@pytest.fixture(scope="session")
def small_dataset():
    """A small, easy 3-class dataset (deterministic)."""
    X, y = make_classification_blobs(
        n_samples=240,
        n_features=5,
        n_classes=3,
        class_sep=2.5,
        noise_scale=0.8,
        seed=7,
    )
    return X, y


@pytest.fixture(scope="session")
def small_split(small_dataset):
    """Quantized 70/30 split of the small dataset."""
    X, y = small_dataset
    X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.3, seed=1)
    return (
        quantize_dataset(X_train, 4),
        quantize_dataset(X_test, 4),
        y_train,
        y_test,
    )


@pytest.fixture(scope="session")
def small_tree(small_split):
    """A depth-4 conventional tree trained on the small dataset."""
    X_train_levels, _, y_train, _ = small_split
    trainer = CARTTrainer(max_depth=4, resolution_bits=4, seed=3)
    return trainer.fit(X_train_levels, y_train, n_classes=3)


@pytest.fixture(scope="session")
def tiny_levels_dataset():
    """A tiny hand-checkable quantized dataset (2 features, 2 classes)."""
    X_levels = np.array(
        [
            [2, 10],
            [3, 12],
            [1, 9],
            [4, 11],
            [12, 2],
            [13, 3],
            [11, 1],
            [14, 4],
        ],
        dtype=np.int64,
    )
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64)
    return X_levels, y


@pytest.fixture
def count_minimizations(monkeypatch):
    """Every ``SumOfProducts.minimized`` call made during the test, in order."""
    calls = []
    original = SumOfProducts.minimized

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(SumOfProducts, "minimized", counting)
    return calls
