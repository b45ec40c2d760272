"""Child-process entry points of the benchmark (one fresh interpreter each).

``python3 perfbench/child.py pass CONFIG_JSON``
    Import ``repro``, optionally install the tracer, run one pass of a
    workload (see ``workloads.py``) and print its result as one JSON line.
    CONFIG_JSON holds ``workload``, ``seed``, ``workdir``, ``seconds`` and
    ``trace`` (a span-file path or null).

``python3 perfbench/child.py cli STATS_JSON TRACE_JSON|- ARGV...``
    Time a fresh ``import repro.cli``, then run ``repro.cli.main(ARGV)``
    with its stdout untouched; write the timings, peak memory and (when
    TRACE_JSON is not ``-``) the spans to STATS_JSON / TRACE_JSON.  This
    is how ``replay_warm`` starts each CLI command.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_source(module) -> None:
    """Refuse to measure a ``repro`` that is not the checkout's own."""
    if SRC.resolve() not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"repro imported from {module.__file__}, not from {SRC}")


def _traced_summary(tracer, trace_path: str | None, **extra) -> dict:
    tracer.uninstall()
    tracer.write(trace_path, **extra)
    return {
        "layers": tracer.layer_table(),
        "counters": tracer.counters,
        "root_s": tracer.root_seconds(),
    }


def run_pass(config: dict) -> dict:
    began = time.perf_counter()
    import repro
    import repro.analysis.experiments  # noqa: F401
    import repro.cli  # noqa: F401

    _check_source(repro)
    import_s = time.perf_counter() - began

    import workloads
    from spans import Tracer

    tracer = Tracer() if config["trace"] else None
    workload, seed, workdir = config["workload"], config["seed"], config["workdir"]
    verify = None
    probe_before = workloads.host_probe()
    if workload in ("paper_cold", "surface_cold"):
        passes = {"paper_cold": workloads.paper_pass, "surface_cold": workloads.surface_pass}
        if tracer is not None:
            tracer.install()
        result, verify = passes[workload](seed, str(Path(workdir) / "store"))
        result["setup_s"] = import_s
    elif workload == "replay_fill":
        result = workloads.fill_store(seed, config["store"], config["expected"])
    elif workload == "serve":
        result = workloads.serve_run(seed, workdir, config["seconds"], tracer)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    result.setdefault("probe_s", [probe_before, workloads.host_probe()])
    if tracer is not None:
        result.update(_traced_summary(tracer, config["trace"], workload=workload))
    result["rss_mb"] = _peak_rss_mb()
    if verify is not None:
        result["failures"] = verify()
    return result


def run_cli(stats_path: str, trace_path: str, argv: list[str]) -> int:
    began = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - began
    _check_source(repro.cli)
    tracer = None
    if trace_path != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    began = time.perf_counter()
    code = repro.cli.main(argv)
    sys.stdout.flush()
    stats = {"import_s": import_s, "main_s": time.perf_counter() - began, "code": code}
    if tracer is not None:
        stats.update(_traced_summary(tracer, trace_path, argv=argv))
    stats["rss_mb"] = _peak_rss_mb()
    Path(stats_path).write_text(json.dumps(stats), encoding="utf-8")
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["pass"] and len(argv) == 2:
        print(json.dumps(run_pass(json.loads(argv[1]))))
        return 0
    if argv[:1] == ["cli"] and len(argv) >= 4:
        return run_cli(argv[1], argv[2], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
