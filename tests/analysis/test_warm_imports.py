"""A warm CLI command imports only what a cache replay runs.

Once the result store holds a benchmark, ``table1``, ``fig4``, ``fig5``,
``table2``, ``surface --cache-only`` and ``search --cache-only`` only read
records and render them.  Each runs here as a fresh process against a store
filled in-process; its stdout must equal the cold render byte for byte, and
it must not have imported the trainers, the split search, the unary
translation, the circuits, the baselines, the serving stack or the dataset
recipes (the table and figure commands not even the search).  Recipes are imported where they run,
so a stray module-level import in a record module fails this test.

The table, figure and surface commands must not import numpy either: record
modules import it where they compute, and a stored tree keeps its node table
packed until an array is read.  ``search`` is exempt, since its sampler
scores candidates with numpy.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.circuits.cosim import SIMULATORS
from repro.search.space import space_names

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules (and packages, with every submodule) no replay may import.
NEVER = (
    "repro.mltrees.cart",
    "repro.mltrees.split_search",
    "repro.core.adc_aware_training",
    "repro.core.unary_tree",
    "repro.core.bitkernel",
    "repro.baselines",
    "repro.circuits",
    "repro.serve",
    "repro.datasets.synthetic",
    "repro.datasets.base",
)

#: Runs ``repro.cli.main`` on argv, then reports the loaded ``repro`` modules
#: and whether numpy is loaded.
CHILD = """\
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
modules = sorted(m for m in sys.modules if m.startswith("repro") or m == "numpy")
print(json.dumps(modules), file=sys.stderr)
sys.exit(code)
"""


def _commands(store: str, cache_only: bool) -> list[tuple[str, list[str]]]:
    common = ["--seed", "0", "--jobs", "1", "--cache-dir", store]
    only = ["--cache-only"] if cache_only else []
    return [
        ("table1", ["table1", "--datasets", "seeds", *common]),
        ("fig4", ["fig4", "--datasets", "seeds", *common]),
        ("fig5", ["fig5", "--datasets", "seeds", *common]),
        ("table2", ["table2", "--datasets", "seeds", *common]),
        ("surface", ["surface", "--datasets", "seeds", "--sigma", "0.02",
                     "--trials", "10", *common, *only]),
        ("search", ["search", "--dataset", "seeds", "--budget", "4", *common, *only]),
    ]


def _loaded(modules: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """The store the cold in-process runs filled, and their stdout per command."""
    store = str(tmp_path_factory.mktemp("warm-store"))
    commands = _commands(store, cache_only=False)
    outputs = {}
    # The search runs twice: its first run may train a trial no suite entry
    # holds, and only the second prints what a replay prints.
    for label, argv in commands + commands[-1:]:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert cli.main(argv) == 0, label
        outputs[label] = buffer.getvalue()
    return store, outputs


@pytest.mark.parametrize("label", ["table1", "fig4", "fig5", "table2", "surface", "search"])
def test_warm_replay_prints_the_cold_render_and_imports_no_recipe(cold, label):
    store, outputs = cold
    argv = dict(_commands(store, cache_only=True))[label]
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == outputs[label]
    modules = json.loads(done.stderr.strip().splitlines()[-1])
    assert _loaded(modules, NEVER) == []
    if label != "search":
        assert _loaded(modules, ("repro.search", "numpy")) == []


def test_store_entries_name_no_numpy(cold):
    store, _ = cold
    entries = list(Path(store).rglob("*.pkl"))
    assert entries
    assert [path.name for path in entries if b"numpy" in path.read_bytes()] == []


def test_parser_choices_match_their_sources():
    # The parser names them itself, so that building it imports neither package.
    assert cli._SPACES == space_names()
    assert cli._SIMULATORS == SIMULATORS
