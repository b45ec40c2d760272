"""Tests of the benchmark's tracer and of its traced runs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from spans import TARGETS, Tracer, import_targets, layer_table  # noqa: E402


def _bindings() -> dict[tuple[str, str], object]:
    """Every module attribute (and class attribute) holding a traced function."""
    import_targets()
    originals = set()
    for module_name, attr_path, _ in TARGETS:
        owner = sys.modules[module_name]
        for part in attr_path.split("."):
            owner = getattr(owner, part)
        originals.add(id(owner))
    found = {}
    for name, module in list(sys.modules.items()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            if id(value) in originals:
                found[name, key] = value
            elif isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    if id(member) in originals:
                        found[f"{name}.{key}", attr] = member
    return found


def test_self_time_subtracts_direct_children():
    # outer [0, 12] > inner [1, 2], inner [4, 10] > leaf [5, 8]
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 10.0, 12.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    inner_leaf = tracer.wrap("inner", lambda: leaf())
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner_leaf()

    tracer.wrap("outer", body)()
    table = layer_table(tracer.spans)
    assert table["outer"] == {"calls": 1, "self_s": 12.0 - 1.0 - 6.0, "total_s": 12.0}
    assert table["inner"] == {"calls": 2, "self_s": 1.0 + (6.0 - 3.0), "total_s": 7.0}
    assert table["leaf"] == {"calls": 1, "self_s": 3.0, "total_s": 3.0}
    assert tracer.root_seconds() == 12.0


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = _bindings()
    # Names copied with ``from x import f`` in several modules.
    assert ("repro.core.exploration", "simulate_offset_variation") in before
    assert ("repro.analysis.experiments", "simulate_offset_variation") in before
    assert ("repro.core.codesign", "proposed_hardware_report") in before

    tracer = Tracer()
    tracer.install()
    try:
        for (owner, attr), original in before.items():
            module = sys.modules.get(owner)
            if module is None:  # a class attribute
                module_name, _, class_name = owner.rpartition(".")
                current = vars(getattr(sys.modules[module_name], class_name))[attr]
            else:
                current = vars(module)[attr]
            assert current is not original, f"{owner}.{attr} was not wrapped"
            assert getattr(current, "__perfbench_original__") is original
        # A module imported while tracing copies the wrapper; it is restored too.
        from repro.core import variation

        late = types.ModuleType("late_importer")
        late.simulate_offset_variation = variation.simulate_offset_variation
        sys.modules["late_importer"] = late
    finally:
        tracer.uninstall()
        sys.modules.pop("late_importer", None)
    assert late.simulate_offset_variation is before[
        "repro.core.variation", "simulate_offset_variation"]
    assert _bindings() == before


def test_traced_pass_outputs_equal_untraced(tmp_path):
    from repro.analysis import experiments

    def fresh_pass(label: str, tracer=None):
        experiments.clear_memo()
        experiments._variation_classifier.cache_clear()
        if tracer is not None:
            tracer.install()
        try:
            result, verify = workloads.surface_pass(0, str(tmp_path / label))
        finally:
            if tracer is not None:
                tracer.uninstall()
        assert verify() == []
        return result

    untraced = fresh_pass("untraced")
    tracer = Tracer()
    traced = fresh_pass("traced", tracer)
    assert traced["digests"] == untraced["digests"]
    table = tracer.layer_table()
    assert table["core.variation.simulate_offset_variation"]["calls"] == 2 * 3 * 49
    assert tracer.counters["variation_trials"] == 2 * 3 * 49 * workloads.SURFACE_TRIALS
    assert tracer.root_seconds() > 0.9 * sum(traced["segment_s"])


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["paper_cold", "surface_cold", "replay_warm", "serve"])
def test_each_layer_records_work_on_its_workload(workload):
    # run.py fails a traced run whose EXPECTED_LAYERS record nothing.
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    from run import EXPECTED_LAYERS, PER_LAYER

    assert set(result["metrics"]) == set(PER_LAYER)
    for name in EXPECTED_LAYERS[workload]:
        assert result["metrics"][name]["value"] > 0, name
