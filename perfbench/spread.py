"""Run the benchmark over several seeds and record medians and spreads.

Run from the repository root::

    python3 perfbench/spread.py --seeds 0-9 --out perfbench/baseline.json

For every workload, one untraced run per seed gives each end-to-end
metric's median and spread (the distance between the first and third
quartiles of the per-seed values, as a share of their median).  One traced
run per workload at the first seed gives the per-layer table and the
tracing overhead (traced ``trace.wall_s`` against the untraced ``wall_s``
of the same seed).  Runs are serial; nothing else should run meanwhile.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from record_references import parse_seeds  # noqa: E402
from run import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    print(done.stdout.strip().splitlines()[0] if done.stdout else done.stderr[-500:],
          flush=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stdout}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--out", default=None, help="write the record here (JSON)")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
    record = {"run_seconds": BENCHMARK["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, trace=False) for seed in seeds]
        traced = run_once(workload, seeds[0], trace=True)
        metrics = {}
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for result in runs]
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bound,
                "values": values,
            }
            print(f"  {workload} {name}: median {metrics[name]['median']:.6g} "
                  f"spread {metrics[name]['spread']:.3f} (bound {bound})", flush=True)
        layers = {name: entry["value"] for name, entry in traced["metrics"].items()}
        untraced_wall = runs[0]["metrics"]["wall_s"]["value"]
        record["workloads"][workload] = {
            "attempted": sum(result["attempted"] for result in runs),
            "failed": sum(result["failed"] for result in runs),
            "end_to_end": metrics,
            "tracing_overhead": layers["trace.wall_s"] / untraced_wall - 1.0,
            "per_layer": layers,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
