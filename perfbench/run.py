"""Benchmark of the co-design repository: four workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` re-runs the
workload with every traced function wrapped (``spans.py``) and prints the
per-layer metrics instead, writing all spans to one JSON file under
``.perfbench_out/``.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output check passed, 1 when
one failed and 2 when the repository sources are missing.

Every timed pass runs in a fresh interpreter (``child.py``) against its
own empty store and scratch directories inside ``.perfbench_work/``, so no
in-process memo or earlier store survives between passes.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from spans import TARGETS  # noqa: E402
from workloads import (  # noqa: E402
    PROBE_REFERENCE_S,
    SERVE_CLIENTS,
    SERVE_P99_LIMIT_MS,
    SERVE_RATE_HZ,
    SERVE_REQUESTS_PER_CLIENT,
    host_probe,
    replay_commands,
)

WORKLOADS = ("paper_cold", "surface_cold", "replay_warm", "serve")

#: End-to-end metrics and their units (every workload reports all of them).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
}

CLI_COMMANDS = tuple(label for label, _ in replay_commands(0, "."))

#: Per-layer metrics and their units (every workload reports all of them).
PER_LAYER = {
    **{f"{name}.{kind}": unit for _, _, name in TARGETS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "core.variation.trials_per_s": "1/s",
    "core.store.hit_ratio": "ratio",
    "core.store.bytes_written": "bytes",
    "search.from_cache_ratio": "ratio",
    "cli.import_s": "s",
    **{f"cli.{label}_s": "s" for label in CLI_COMMANDS},
    "serve.flushes": "count",
    "serve.mean_batch": "count",
    "serve.queue_wait_ms": "ms",
    "serve.loadgen_lag_ms": "ms",
    "serve.p99_ms": "ms",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "host.probe_ms": "ms",
}

#: Layers that must record work on the workload whose ``wall_s`` (or, for
#: ``serve``, latency) they move; a traced run fails its check otherwise.
EXPECTED_LAYERS = {
    "paper_cold": (
        "mltrees.split_search.enumerate_split_candidates.calls",
        "mltrees.cart.CARTTrainer.fit.calls",
        "mltrees.evaluation.evaluate_tree_accuracy.calls",
        "mltrees.quantize.quantize_dataset.calls",
        "core.adc_aware_training.ADCAwareTrainer.fit.calls",
        "core.exploration.proposed_hardware_report.calls",
        "circuits.two_level.SumOfProducts.minimized.calls",
        "core.unary_tree.UnaryDecisionTree.to_netlist.calls",
        "circuits.ppa.AnalyticPPABackend.area_power.calls",
        "core.bespoke_adc.build_bespoke_frontend.calls",
        "baselines.balaskas.fit_balaskas_design.calls",
        "baselines.mubarik.BaselineBespokeDesign.hardware_report.calls",
        "core.store.ResultStore.put.calls",
        "core.store.bytes_written",
    ),
    "surface_cold": (
        "datasets.registry.load_dataset.calls",
        "mltrees.split_search.enumerate_split_candidates.calls",
        "mltrees.cart.CARTTrainer.fit.calls",
        "mltrees.evaluation.evaluate_tree_accuracy.calls",
        "mltrees.quantize.quantize_dataset.calls",
        "core.adc_aware_training.ADCAwareTrainer.fit.calls",
        "core.variation.simulate_offset_variation.calls",
        "core.variation.trials_per_s",
        "core.store.ResultStore.put.calls",
        "core.store.bytes_written",
    ),
    "replay_warm": (
        "cli.import_s",
        *(f"cli.{label}_s" for label in CLI_COMMANDS),
        "core.store.ResultStore.get.calls",
        "core.store.hit_ratio",
        "search.optimizer.ParetoTPESampler.ask.calls",
        "search.optimizer.ParetoTPESampler.tell.calls",
        "search.study.Study.run.calls",
        "search.from_cache_ratio",
    ),
    "serve": (
        "core.bitkernel.CompiledTreeKernel.predict_levels.calls",
        "adc.thermometer.quantize_array_to_levels.calls",
        "serve.flushes",
        "serve.mean_batch",
        "serve.p99_ms",
    ),
}

#: Seconds of ``--seconds`` per cold pass: a run makes
#: ``max(3, round(seconds / this))`` passes, pass ``k`` at dataset seed
#: ``seed + k``.  Consecutive seeds keep one unusually small or large tree
#: (cardio's grid has 656 to 934 ADC comparators over seeds 0-9) from
#: deciding the run's median; a ``surface_cold`` pass takes 4 to 6 s
#: across seeds, so it gets more of them.
PASS_SECONDS = {"paper_cold": 10.0, "surface_cold": 2.5}

#: A run's passes never start after this many seconds (the run must end
#: within 180 s, and the slowest pass takes about 15 s on a slow host).
START_LIMIT_S = 140.0
CHILD_TIMEOUT_S = 170.0


#: What a CLI child that died before writing its statistics counts as.
MISSING_CLI_STATS = {"rss_mb": 0.0, "import_s": 0.0, "main_s": 0.0, "layers": {},
                     "counters": {}, "root_s": 0.0}


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero or timed out."""


class Run:
    """One benchmark invocation: scratch space, child processes, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.workdir = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-{os.getpid()}"
        self.trace_files: list[Path] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._serial = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            REPRO_CACHE_DIR=str(self.workdir / "default-store"),
            MPLCONFIGDIR=str(self.workdir / "mpl"),
            TMPDIR=str(self.workdir / "tmp"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    # -------------------------------------------------------------- #
    # scratch space and children
    # -------------------------------------------------------------- #
    def fresh_dir(self, label: str) -> Path:
        self._serial += 1
        path = self.workdir / f"{label}{self._serial}"
        path.mkdir(parents=True)
        return path

    def trace_path(self, label: str) -> str | None:
        if not self.trace:
            return None
        path = self.workdir / "spans" / f"{label}-{self._serial}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        self.trace_files.append(path)
        return str(path)

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        timeout = max(1.0, CHILD_TIMEOUT_S - self.elapsed())
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "child.py"), *argv],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child timed out after {timeout:.0f}s") from exc
        return done

    def child_pass(self, workload: str, **config) -> dict:
        workdir = self.fresh_dir("pass")
        config.setdefault("trace", self.trace_path(workload))
        config.setdefault("seed", self.seed)
        config.update(workload=workload, workdir=str(workdir), seconds=self.seconds)
        done = self.child(["pass", json.dumps(config)])
        shutil.rmtree(workdir, ignore_errors=True)
        if done.returncode != 0:
            raise ChildFailed(f"{workload} pass exited {done.returncode}: "
                              f"{done.stderr.strip()[-2000:]}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def keep_going(self, passes: int, since: float) -> bool:
        """Whether to start another replay pass: at least three, then until ``seconds``."""
        if self.elapsed() > START_LIMIT_S:
            return False
        return passes < 3 or time.perf_counter() - since < self.seconds

    # -------------------------------------------------------------- #
    # checks
    # -------------------------------------------------------------- #
    def check(self, ok: bool, message: str) -> None:
        self.record(1, [] if ok else [message])

    def record(self, attempted: int, failures: list[str]) -> None:
        """Count ``attempted`` operations or checks, of which ``failures`` failed."""
        self.attempted += attempted
        self.failed += len(failures)
        self.notes.extend(f"FAILED: {failure}" for failure in failures)

    def check_references(self, seed: int, digests: dict, extra: dict | None = None) -> None:
        """Compare digests (and values) with the ones recorded for ``seed``."""
        reference = load_references().get(str(seed))
        if reference is None:
            self.notes.append(f"no reference for seed {seed}: its digests were not compared")
            return
        for label, value in {**digests, **(extra or {})}.items():
            if label in reference:
                self.check(reference[label] == value,
                           f"{label} = {value}, recorded {reference[label]}")

    def write_trace(self) -> Path | None:
        """Merge the children's span files into one JSON trace."""
        if not self.trace:
            return None
        out = ROOT / ".perfbench_out" / f"trace-{self.workload}-seed{self.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        parts = [json.loads(path.read_text(encoding="utf-8"))
                 for path in self.trace_files if path.exists()]
        out.write_text(json.dumps({"workload": self.workload, "seed": self.seed,
                                   "parts": parts}, separators=(",", ":")),
                       encoding="utf-8")
        return out


def load_references() -> dict:
    path = HERE / "references.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def mean_of_medians(per_model: list[list[float]]) -> float:
    """Mean over the served models of each model's median."""
    return statistics.fmean(statistics.median(values) for values in per_model)


def host_scale(probes: list[float]) -> float:
    """Factor taking times measured between ``probes`` to the reference host speed."""
    return PROBE_REFERENCE_S / statistics.fmean(probes)


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
def run_cold(run: Run) -> dict:
    """paper_cold / surface_cold: passes at consecutive seeds, each on an empty store."""
    passes = []
    for offset in range(max(3, round(run.seconds / PASS_SECONDS[run.workload]))):
        if run.elapsed() > START_LIMIT_S:
            break
        seed = run.seed + offset
        result = run.child_pass(run.workload, seed=seed)
        passes.append(result)
        run.record(len(result["segment_s"]) + result["checks"], result["failures"])
        extra = {}
        if "paper_error_pct" in result:
            extra["paper_error_pct"] = round(result["paper_error_pct"], 2)
        run.check_references(seed, result["digests"], extra)
    if "paper_error_pct" in passes[0]:
        run.notes.append(f"paper_error_pct {passes[0]['paper_error_pct']:.2f} % at seed "
                         f"{run.seed} (mean relative error vs. the paper's Table I)")
    op_ms, walls = [], []
    for result in passes:
        # Each segment (one operation) is scaled by the probes just before and after it.
        probes = result["probe_s"]
        scaled = [seconds * host_scale(probes[index:index + 2])
                  for index, seconds in enumerate(result["segment_s"])]
        op_ms.extend(1e3 * seconds for seconds in scaled)
        walls.append(sum(scaled))
    scales = [host_scale(result["probe_s"]) for result in passes]
    summary = {
        "raw_wall_s": [sum(result["segment_s"]) for result in passes],
        "probes": [probe for result in passes for probe in result["probe_s"]],
        "wall_samples": walls,
        "op_ms": op_ms,
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(
                result["setup_s"] * host_scale(result["probe_s"][:1]) for result in passes),
            "peak_rss_mb": statistics.median(result["rss_mb"] for result in passes),
            "latency_p50_ms": statistics.median(op_ms),
        },
    }
    if run.trace:
        summary["layers"] = traced_layers(passes, walls, scales)
    return summary


def run_replay(run: Run) -> dict:
    """replay_warm: fill a store once, then replay six CLI commands cold-started."""
    store = run.fresh_dir("store")
    expected_dir = run.fresh_dir("expected")
    fill = run.child_pass("replay_fill", store=str(store), expected=str(expected_dir),
                          trace=None)
    run.check_references(run.seed, fill["digests"])
    commands = replay_commands(run.seed, str(store))
    expected = {label: (expected_dir / f"{label}.txt").read_text(encoding="utf-8")
                for label, _ in commands}
    passes = []
    probes = [host_probe()]
    since = time.perf_counter()
    while run.keep_going(len(passes), since):
        children = []
        for label, argv in commands:
            stats_path = run.fresh_dir("cli") / "stats.json"
            trace = run.trace_path(label) or "-"
            started = time.perf_counter()
            done = run.child(["cli", str(stats_path), trace, *argv])
            seconds = time.perf_counter() - started
            # Each command is scaled by the probes just before and after it.
            probes.append(host_probe())
            scale = host_scale(probes[-2:])
            run.check(done.returncode == 0 and done.stdout == expected[label],
                      f"{label} exited {done.returncode} or its stdout differs from "
                      f"the cold render: {done.stderr.strip()[-500:]}")
            stats = (json.loads(stats_path.read_text(encoding="utf-8"))
                     if stats_path.exists() else dict(MISSING_CLI_STATS))
            children.append({"label": label, "seconds": seconds, "scale": scale, **stats})
        passes.append({"children": children})
    op_ms = [1e3 * child["seconds"] * child["scale"]
             for result in passes for child in result["children"]]
    walls = [sum(child["seconds"] * child["scale"] for child in result["children"])
             for result in passes]
    summary = {
        "raw_wall_s": [sum(child["seconds"] for child in result["children"])
                       for result in passes],
        "probes": probes,
        "wall_samples": walls,
        "op_ms": op_ms,
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": sum(seconds * host_scale(fill["probe_s"][index:index + 2])
                           for index, seconds in enumerate(fill["setup_s"])),
            "peak_rss_mb": statistics.median(
                max(child["rss_mb"] for child in result["children"]) for result in passes),
            "latency_p50_ms": statistics.median(op_ms),
        },
    }
    if run.trace:
        # Children's times are scaled here, each by its own probes.
        flat = []
        for result in passes:
            flat.append({
                "layers": merge_tables(scale_table(child["layers"], child["scale"])
                                       for child in result["children"]),
                "counters": sum_counters(child["counters"] for child in result["children"]),
                "root_s": sum(child["root_s"] * child["scale"] for child in result["children"]),
            })
        layers = traced_layers(flat, walls, [1.0] * len(flat))
        children = [child for result in passes for child in result["children"]]
        layers["cli.import_s"] = statistics.fmean(
            child["import_s"] * child["scale"] for child in children)
        for label in CLI_COMMANDS:
            layers[f"cli.{label}_s"] = statistics.fmean(
                child["main_s"] * child["scale"] for child in children
                if child["label"] == label)
        summary["layers"] = layers
    return summary


def run_serve(run: Run) -> dict:
    """serve: promote, then closed-loop and open-loop phases in one child.

    Closed-loop passes and set-up are scaled by the probes around them;
    open-loop latencies are reported as measured, because at the fixed
    rate they do not follow host speed.  Each closed- and open-loop figure
    is the mean over the served models of that model's median.
    """
    result = run.child_pass("serve")
    run.record(result["attempted"], [])
    if result["failed"]:
        run.failed += result["failed"]
        run.notes.append(f"FAILED: {result['failed']} serve requests errored or returned "
                         "a label other than tree.predict_levels")
    opened = result["open"]
    probes = result["closed_probe_s"]
    # Pass r of every model ran between probes r and r + 1.
    walls = [[seconds * host_scale(probes[index:index + 2]) for index, seconds in enumerate(passes)]
             for passes in result["closed_s"]]
    wall_s = mean_of_medians(walls)
    requests_per_pass = SERVE_CLIENTS * SERVE_REQUESTS_PER_CLIENT
    run.notes.append(
        f"closed loop: {SERVE_CLIENTS} clients, {len(walls)} models x {len(walls[0])} passes "
        f"of {requests_per_pass} requests, {requests_per_pass / wall_s:.0f} req/s"
    )
    p99 = mean_of_medians(opened["window_p99_ms"])
    run.notes.append(
        f"open loop: {opened['requests']} requests at {SERVE_RATE_HZ:g} req/s in "
        f"{len(walls)} models x {len(opened['window_p99_ms'][0])} windows; p99 {p99:.3f} ms "
        f"(limit {SERVE_P99_LIMIT_MS:g} ms: {'met' if p99 <= SERVE_P99_LIMIT_MS else 'MISSED'})"
    )
    summary = {
        "raw_wall_s": [seconds for passes in result["closed_s"] for seconds in passes],
        "probes": probes,
        "wall_samples": [seconds for passes in walls for seconds in passes],
        "metrics": {
            "wall_s": wall_s,
            "setup_s": statistics.median(
                seconds * host_scale(result["setup_probe_s"][index:index + 2])
                for index, seconds in enumerate(result["setup_s"])),
            "peak_rss_mb": result["rss_mb"],
            "latency_p50_ms": mean_of_medians(opened["window_p50_ms"]),
        },
    }
    if run.trace:
        layers = traced_layers([{**result, "root_s": 0.0}], [wall_s], [host_scale(probes)])
        layers["trace.coverage"] = result["root_s"] / result["run_s"]
        layers["serve.flushes"] = result["flushes"]
        layers["serve.mean_batch"] = result["mean_batch"]
        layers["serve.queue_wait_ms"] = opened["mean_ms"] - result["flush_ms"]
        layers["serve.loadgen_lag_ms"] = opened["lag_ms"]
        layers["serve.p99_ms"] = p99
        summary["layers"] = layers
    return summary


# ---------------------------------------------------------------------- #
# per-layer aggregation
# ---------------------------------------------------------------------- #
def merge_tables(tables) -> dict:
    merged: dict[str, dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
    return merged


def sum_counters(counters) -> dict:
    total: dict[str, int] = {}
    for counter in counters:
        for key, value in counter.items():
            total[key] = total.get(key, 0) + value
    return total


def scale_table(table: dict, factor: float) -> dict:
    return {name: {**row, "self_s": row["self_s"] * factor, "total_s": row["total_s"] * factor}
            for name, row in table.items()}


def traced_layers(passes: list[dict], walls: list[float], scales: list[float]) -> dict:
    """Per-pass means of the traced calls, (host-scaled) self times and counters."""
    n = len(passes)
    table = merge_tables(scale_table(result["layers"], f) for result, f in zip(passes, scales))
    counters = sum_counters(result["counters"] for result in passes)
    layers = dict.fromkeys(PER_LAYER, 0.0)
    for _, _, name in TARGETS:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        layers[f"{name}.calls"] = row["calls"] / n
        layers[f"{name}.self_s"] = row["self_s"] / n
    variation_s = table.get("core.variation.simulate_offset_variation", {}).get("total_s", 0.0)
    if variation_s:
        layers["core.variation.trials_per_s"] = counters["variation_trials"] / variation_s
    if counters["store_gets"]:
        layers["core.store.hit_ratio"] = counters["store_hits"] / counters["store_gets"]
    layers["core.store.bytes_written"] = counters["store_bytes_written"] / n
    if counters["search_trials"]:
        layers["search.from_cache_ratio"] = (
            counters["search_from_cache"] / counters["search_trials"])
    layers["trace.wall_s"] = statistics.median(walls)
    layers["trace.coverage"] = sum(
        result["root_s"] * f for result, f in zip(passes, scales)) / sum(walls)
    return layers


RUNNERS = {
    "paper_cold": run_cold,
    "surface_cold": run_cold,
    "replay_warm": run_replay,
    "serve": run_serve,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repository sources at {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        summary = RUNNERS[args.workload](run)
        trace_file = run.write_trace()
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            run.workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        for name in EXPECTED_LAYERS[args.workload]:
            run.check(summary["layers"][name] > 0, f"layer metric {name} recorded nothing")
    walls = summary["wall_samples"]
    probe_ms = 1e3 * statistics.median(summary["probes"])
    print(f"{args.workload} seed {args.seed}: {len(walls)} timed passes, "
          f"wall_s median {statistics.median(walls):.4f} s "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); as measured "
          f"{statistics.median(summary['raw_wall_s']):.4f} s at host probe {probe_ms:.2f} ms "
          f"(reference {1e3 * PROBE_REFERENCE_S:g} ms)")
    if "op_ms" in summary:
        ops = summary["op_ms"]
        print(f"operations: {len(ops)}, scaled latency min {min(ops):.1f} ms, "
              f"max {max(ops):.1f} ms")
    for note in run.notes:
        print(note)
    print(f"fail_ratio {run.failed}/{run.attempted}")
    if args.trace:
        summary["layers"]["host.probe_ms"] = probe_ms
        metrics = {name: {"value": summary["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        print(f"trace written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": summary["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
