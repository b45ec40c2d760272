"""Always-on scoring service over the co-designed classifiers.

Three layers turn cached experiment outputs into a serving stack:

* :mod:`repro.serve.registry` -- promote a trained
  :class:`~repro.core.exploration.DesignPoint` into a named, versioned,
  content-addressed model artifact (tree + ADC config + datasheet +
  compiled-kernel metadata).
* :mod:`repro.serve.batching` / :mod:`repro.serve.scorer` -- an asyncio
  micro-batching scorer that accumulates concurrent single-sample requests,
  converts each flush through the ADC front end once, and dispatches one
  bit-parallel kernel call per batch (on Python ``int`` bitsets at serving
  sizes); results are bit-identical to scalar ``predict_levels``.
* :mod:`repro.serve.loadgen` -- open- and closed-loop load generation with
  coordinated-omission-safe latency percentiles, feeding the SLO rows of
  ``benchmarks/bench_serving_throughput.py``.

See ``docs/SERVING.md`` for the end-to-end methodology.
"""

from repro._lazy import lazy_exports

#: Each submodule and the public names it defines.
_EXPORTS = {
    "repro.serve.batching": (
        "BatcherStats", "BatchingConfig", "MicroBatcher", "ScorerClosedError",
    ),
    "repro.serve.loadgen": ("LoadReport", "run_closed_loop", "run_open_loop"),
    "repro.serve.registry": (
        "ModelArtifact", "ModelRegistry", "default_registry_dir", "promote_design",
    ),
    "repro.serve.scorer": ("AsyncScorer",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
