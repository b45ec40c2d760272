"""In-memory span tracer that wraps the public functions of ``repro`` modules.

The benchmark records per-layer numbers without changing ``src/``: it
replaces each traced function with a wrapper that appends one span
``[name, parent, start, end]`` per call.  Spans stay in memory and are
written as one JSON file at the end of a run.

A function bound with ``from x import f`` lives under several module
attributes at once (``simulate_offset_variation`` is reachable from
``repro.core.variation``, ``repro.analysis.experiments`` and
``repro.core.exploration``).  :meth:`Tracer.install` therefore patches every
loaded module attribute that *is* the original object, and
:meth:`Tracer.uninstall` restores each one, so no binding silently records
zero calls and none stays wrapped.  Modules imported after ``install`` that
copy a name with ``from x import f`` pick up the wrapper from ``x`` and are
restored the same way.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

#: Traced functions: (module, attribute path, span name).  The span name is
#: the ``<module>.<function>`` prefix of the ``.calls`` / ``.self_s`` metrics.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.analysis.experiments", "run_benchmark_suite",
     "analysis.experiments.run_benchmark_suite"),
    ("repro.analysis.experiments", "run_robustness_surface",
     "analysis.experiments.run_robustness_surface"),
    ("repro.datasets.registry", "load_dataset", "datasets.registry.load_dataset"),
    ("repro.mltrees.split_search", "enumerate_split_candidates",
     "mltrees.split_search.enumerate_split_candidates"),
    ("repro.mltrees.cart", "CARTTrainer.fit", "mltrees.cart.CARTTrainer.fit"),
    ("repro.mltrees.evaluation", "evaluate_tree_accuracy",
     "mltrees.evaluation.evaluate_tree_accuracy"),
    ("repro.mltrees.quantize", "quantize_dataset", "mltrees.quantize.quantize_dataset"),
    ("repro.core.adc_aware_training", "ADCAwareTrainer.fit",
     "core.adc_aware_training.ADCAwareTrainer.fit"),
    ("repro.core.exploration", "proposed_hardware_report",
     "core.exploration.proposed_hardware_report"),
    ("repro.circuits.two_level", "SumOfProducts.minimized",
     "circuits.two_level.SumOfProducts.minimized"),
    ("repro.core.unary_tree", "UnaryDecisionTree.to_netlist",
     "core.unary_tree.UnaryDecisionTree.to_netlist"),
    ("repro.circuits.ppa", "AnalyticPPABackend.area_power",
     "circuits.ppa.AnalyticPPABackend.area_power"),
    ("repro.core.bespoke_adc", "build_bespoke_frontend",
     "core.bespoke_adc.build_bespoke_frontend"),
    ("repro.baselines.balaskas", "fit_balaskas_design",
     "baselines.balaskas.fit_balaskas_design"),
    ("repro.baselines.mubarik", "BaselineBespokeDesign.hardware_report",
     "baselines.mubarik.BaselineBespokeDesign.hardware_report"),
    ("repro.core.variation", "simulate_offset_variation",
     "core.variation.simulate_offset_variation"),
    ("repro.core.store", "ResultStore.get", "core.store.ResultStore.get"),
    ("repro.core.store", "ResultStore.put", "core.store.ResultStore.put"),
    ("repro.search.optimizer", "ParetoTPESampler.ask",
     "search.optimizer.ParetoTPESampler.ask"),
    ("repro.search.optimizer", "ParetoTPESampler.tell",
     "search.optimizer.ParetoTPESampler.tell"),
    ("repro.search.study", "Study.run", "search.study.Study.run"),
    ("repro.core.bitkernel", "CompiledTreeKernel.predict_levels",
     "core.bitkernel.CompiledTreeKernel.predict_levels"),
    ("repro.adc.thermometer", "quantize_array_to_levels",
     "adc.thermometer.quantize_array_to_levels"),
)

#: Counters derived from traced calls (see :meth:`Tracer._observe`).
COUNTERS = ("store_hits", "store_gets", "store_bytes_written", "variation_trials",
            "search_trials", "search_from_cache")

_ORIGINAL = "__perfbench_original__"


def import_targets() -> None:
    """Import every module that defines a traced function."""
    for module_name in dict.fromkeys(module for module, _, _ in TARGETS):
        importlib.import_module(module_name)


class Tracer:
    """Span recorder; ``install()`` patches :data:`TARGETS`, ``uninstall()`` undoes it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: One ``[name, parent_index, start, end]`` list per call, in call order.
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def wrap(self, name: str, func):
        """A wrapper of ``func`` recording one span named ``name`` per call."""
        spans, stack, clock, observe = self.spans, self._stack, self.clock, self._observe

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            observe(name, result)
            return result

        setattr(traced, _ORIGINAL, func)
        return traced

    def _observe(self, name: str, result) -> None:
        counters = self.counters
        if name == "core.store.ResultStore.get":
            counters["store_gets"] += 1
            counters["store_hits"] += result is not None
        elif name == "core.store.ResultStore.put":
            counters["store_bytes_written"] += Path(result).stat().st_size
        elif name == "core.variation.simulate_offset_variation":
            counters["variation_trials"] += len(result.accuracies)
        elif name == "search.study.Study.run":
            counters["search_trials"] += len(result.trials)
            counters["search_from_cache"] += result.n_from_cache

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every binding of every target in all loaded modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import_targets()
        for module_name, attr_path, span_name in TARGETS:
            owner = sys.modules[module_name]
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(span_name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding, including copies made after install."""
        restore = {}  # id(wrapper) -> (wrapper, original); keeps the wrappers alive
        for owner, attr, original in reversed(self._patches):
            wrapper = vars(owner)[attr]
            restore[id(wrapper)] = (wrapper, original)
            setattr(owner, attr, original)
        self._patches.clear()
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                entry = restore.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, key, entry[1])

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def layer_table(self) -> dict[str, dict[str, float]]:
        """``{span name: {"calls", "self_s", "total_s"}}`` over all recorded spans."""
        return layer_table(self.spans)

    def root_seconds(self) -> float:
        """Seconds covered by top-level spans (spans without a parent)."""
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)

    def write(self, path: str | Path, **extra) -> Path:
        """Write the spans (and ``extra`` fields) as one JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans, "counters": self.counters, **extra}
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
        return path


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Calls, self and total seconds per span name.

    A span's self time is its duration minus the time covered by its direct
    children; children nest inside their parent on one thread, so their
    intervals never overlap.
    """
    child_seconds = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for index, (name, _, start, end) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start - child_seconds[index]
        row["total_s"] += end - start
    return table
