"""Record the reference output digests that ``run.py`` checks runs against.

Run from the repository root, on the commit whose outputs are the
reference::

    python3 perfbench/record_references.py --seeds 0-19

For each seed, one fresh ``paper_cold`` pass and one fresh ``surface_cold``
pass render the ``table1``/``fig4``/``fig5``/``table2`` and surface outputs;
their digests and the seed's ``paper_error_pct`` are written to
``perfbench/references.json``.  A speed-only change must reproduce them.
Two seeds are recorded at a time; nothing here is timed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import Run  # noqa: E402


def record(seed: int) -> dict:
    reference = {}
    for workload in ("paper_cold", "surface_cold"):
        run = Run(workload, seed, seconds=0, trace=False)
        try:
            result = run.child_pass(workload)
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)
        if result["failures"]:
            raise SystemExit(f"seed {seed} {workload}: {result['failures']}")
        reference.update(result["digests"])
        if "paper_error_pct" in result:
            reference["paper_error_pct"] = round(result["paper_error_pct"], 2)
    return reference


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    with ThreadPoolExecutor(2) as pool:
        references = dict(zip(map(str, seeds), pool.map(record, seeds)))
    path = HERE / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(references)} seeds to {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
