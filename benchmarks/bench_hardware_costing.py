"""Benchmark -- unary translation and costing on integer cubes.

Every design point of the paper's depth x tau exploration is costed by
translating its tree into per-class two-level logic, minimizing it,
synthesizing the netlist and summing the cell costs.  The production path
builds ``(positive_mask, negative_mask)`` cubes straight from the node
arrays, minimizes them as ints and synthesizes from each minimized cube's
literals (:mod:`repro.circuits.two_level`); the reference is the ``Literal`` /
``frozenset`` path it replaced (``tests/oracles/two_level_reference.py``),
costed with the same :func:`~repro.circuits.area_power.estimate_netlist`.

The row times ``UnaryDecisionTree(tree).digital_report`` against the
reference on all 49 grid trees of :data:`DATASET` (fresh translations, no
memo), asserts equal reports on every timed pair and records the best of
:data:`PAIRS` alternating pairs as ``hardware/translate_and_cost[cardio]``
in ``benchmarks/results/BENCH_hardware.json``, gated by
``benchmarks/check_regression.py``.
"""

import time

from oracles import two_level_reference as reference
from repro.analysis.render import render_table
from repro.circuits.area_power import estimate_netlist
from repro.core.design import DesignSpec
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS
from repro.core.unary_tree import UnaryDecisionTree
from repro.pdk.egfet import default_technology

DATASET = "cardio"
PAIRS = 7


def _grid_trees(seed: int):
    trees = []
    for tau in DEFAULT_TAUS:
        deepest = DesignSpec(DATASET, seed, max(DEFAULT_DEPTHS), tau).train()
        trees += [deepest.truncated(depth) for depth in DEFAULT_DEPTHS]
    return trees


def _measure(seed: int) -> dict:
    trees = _grid_trees(seed)
    technology = default_technology()

    def fast():
        return [UnaryDecisionTree(tree).digital_report(technology) for tree in trees]

    def slow():
        return [estimate_netlist(reference.unary_netlist(tree), technology) for tree in trees]

    ref_s, fast_s = [], []
    for _ in range(PAIRS):
        start = time.perf_counter()
        expected = slow()
        ref_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        measured = fast()
        fast_s.append(time.perf_counter() - start)
        assert measured == expected, "the cube path changed a cost report"
    return {
        "workload": f"{len(trees)} grid trees ({DATASET})",
        "ref_s": min(ref_s),
        "fast_s": min(fast_s),
        "fast_rate": len(trees) / min(fast_s),
        "speedup": min(ref_s) / min(fast_s),
    }


def test_translate_and_cost_throughput(bench_seed, write_report, write_bench_json):
    """Cube translation + costing beats the object-based path on a full grid."""
    row = _measure(bench_seed)
    write_report(
        "hardware_costing",
        f"Unary translation + costing of {DATASET}'s grid: Literal/frozenset path -> "
        f"integer cubes (best of {PAIRS} pairs)\n"
        + render_table(
            ["workload", "reference (s)", "cubes (s)", "trees/s", "speedup (x)"],
            [(row["workload"], row["ref_s"], row["fast_s"], row["fast_rate"],
              row["speedup"])],
        ),
    )
    write_bench_json("hardware", [{
        "name": "translate_and_cost",
        "dataset": DATASET,
        "samples_per_sec": row["fast_rate"],
        "unit": "trees/s",
        "speedup": row["speedup"],
    }])
    assert row["speedup"] > 1.0, f"{row['workload']}: no faster than the reference path"
