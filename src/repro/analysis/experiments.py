"""Benchmark-suite orchestration.

:func:`run_benchmark_suite` runs the full co-design flow over (a subset of)
the eight benchmarks.  A benchmark's result is composed of store entries:
one reference entry (baseline [2], its unary re-implementation and, for
Table II, the approximate baseline [7]) plus one
:class:`~repro.core.design.DesignPoint` entry per grid point, addressed by
its :class:`~repro.core.design.DesignSpec` key.  Every runner here takes
one store handle, ``store: ResultStore | None``: the store it reads and
writes, or ``None`` to compute without one (no default location is ever
opened behind the caller's back).  With a store, results are cached on two
levels:

1. an in-process memo, so the several benchmark files regenerating different
   tables/figures from the same underlying experiment share the *same*
   result objects within one interpreter, and
2. the content-addressed on-disk :class:`~repro.core.store.ResultStore`, so
   separate processes -- benchmark scripts, CLI invocations, CI jobs,
   search studies, the model registry -- reuse each other's work per design
   point instead of repaying the full sweep.

Because every key is built from canonical names, asking for the same
benchmarks in a different order, as a list instead of a tuple, or by paper
abbreviation all hit the same entries; and because both suite variants
(Table I and Table II) share their design points, the second variant only
computes its reference designs.

Entries that do need computing -- store misses of any kind, from any
benchmark -- are submitted through one
:class:`~repro.core.executor.Executor` fan-out (:func:`_resolve_units`).
Serial and parallel runs produce identical results (everything is seeded).

:func:`run_variation_analysis` resolves the Monte-Carlo comparator-offset
robustness study of one design point through the same fan-out: one
variation unit per sigma, each a
:class:`~repro.core.variation.VariationAnalysis` cached under
:meth:`~repro.core.design.DesignSpec.variation_key` (``repro.cli
variation``).

:func:`run_robust_exploration` composes both layers into the variation-aware
design-space exploration (``repro.cli explore``): the nominal depth x tau
sweep comes from the suite, and every design point is then annotated with a
per-point robustness summary cached under the same variation keys -- so
``variation``, ``explore``, ``surface`` and the offset-aware Table II all
share one pool of Monte-Carlo results.

:func:`run_plan_shard` executes one shard of a deterministic
:class:`~repro.core.sharding.SuitePlan` into the store (``repro.cli suite
--shard K/N``), and ``run_benchmark_suite(cache_only=True)`` is the strict
assemble mode that renders tables from cache hits only, raising
:class:`~repro.core.sharding.MissingResultsError` when a shard never ran.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from repro.core.codesign import CoDesignResult, reference_designs, select_designs
from repro.core.design import DesignPoint, DesignSpec, evaluate_family
from repro.core.executor import Executor, get_executor
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS, select_best_design
from repro.core.sharding import (
    MissingResultsError,
    ShardSpec,
    SuitePlan,
    WorkUnit,
    normalize_sigmas,
    plan_suite_units,
    variation_work_unit,
)
from repro.core.store import ResultStore
from repro.core.variation import (  # noqa: F401 (simulate_offset_variation: public re-export)
    VariationAnalysis,
    canonical_training_knobs,
    simulate_offset_variation,
)
from repro.datasets.registry import canonical_name, dataset_names
from repro.errors import InputError

#: Smaller benchmarks used when a quick run is requested.
FAST_DATASETS: tuple[str, ...] = ("balance_scale", "vertebral_3c", "vertebral_2c", "seeds")

#: In-process memo (store keys of a benchmark's entries -> composed result).
#: Guarantees that two suite runs with an equivalent configuration return
#: the *same* result objects in one interpreter, on top of the
#: cross-process on-disk store.  Bounded (LRU) so long-lived processes
#: sweeping many configurations do not accumulate every result ever
#: computed; evicted entries remain on disk.
_MEMO: dict[tuple[str, ...], CoDesignResult] = {}

#: Memo capacity: comfortably holds several full 8-dataset configurations.
_MEMO_MAX_ENTRIES = 64


def _memoize(key: tuple[str, ...], result: CoDesignResult) -> None:
    """Insert into the memo, evicting least-recently-used entries."""
    _MEMO.pop(key, None)
    _MEMO[key] = result
    while len(_MEMO) > _MEMO_MAX_ENTRIES:
        _MEMO.pop(next(iter(_MEMO)))


def _memo_get(key: tuple[str, ...]) -> CoDesignResult | None:
    """Memo lookup that refreshes the entry's recency."""
    result = _MEMO.pop(key, None)
    if result is not None:
        _MEMO[key] = result
    return result


def clear_memo() -> None:
    """Drop the in-process memo (the on-disk store is left untouched)."""
    _MEMO.clear()


def resolve_suite_datasets(
    datasets: tuple[str, ...] | None = None, fast: bool = False
) -> tuple[str, ...]:
    """Resolve a suite request to the benchmark list it will actually run.

    ``None`` selects every registered benchmark (or the four small ones when
    ``fast``); explicit names/abbreviations pass through unchanged.  Single
    source of truth for :func:`run_benchmark_suite` and the CLI, so suite
    commands and their offset-aware variants can never diverge on defaults.
    """
    if datasets is None:
        return FAST_DATASETS if fast else tuple(dataset_names())
    return tuple(datasets)


def run_benchmark_suite(
    datasets: tuple[str, ...] | None = None,
    seed: int = 0,
    include_approximate_baseline: bool = True,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    taus: tuple[float, ...] = DEFAULT_TAUS,
    fast: bool = False,
    jobs: int | None = None,
    store: ResultStore | None = None,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
    cache_only: bool = False,
    ppa_backend=None,
) -> list[CoDesignResult]:
    """Run the co-design flow over the benchmark suite (cached per design point).

    Parameters
    ----------
    datasets:
        Benchmark names to run (defaults to all eight in the paper's order).
        Accepts any iterable of names or paper abbreviations; results come
        back in the requested order.
    seed:
        Seed controlling the dataset synthesis, the split and every trainer.
    include_approximate_baseline:
        Whether to also fit the precision-scaled baseline [7] (needed for
        Table II, not for Table I / Figs. 4-5).
    depths, taus:
        Exploration grid (defaults to the paper's grid).
    fast:
        When True and ``datasets`` is not given, restrict the run to the four
        small benchmarks (useful for smoke tests).
    jobs:
        Worker processes to fan out over (``None``/``1``: serial, ``0``: one
        per CPU).  Every pending entry -- reference designs and design
        points of every requested benchmark -- is one job of a single
        fan-out.  Results are identical either way.
    store:
        The on-disk :class:`ResultStore` to read and write.  ``None`` (the
        default) computes everything without a store and bypasses the
        in-process memo too.
    training_sigma:
        Comparator offset sigma in volts assumed by the exploration trainer
        (0: nominal training); see
        :class:`~repro.core.design.DesignSpec`.
    robustness_weight:
        Weight of the expected-flip penalty in the trainer's split scores
        (ignored while ``training_sigma`` is 0).
    cache_only:
        Strict assemble mode: resolve every entry from the on-disk store
        and *never* compute (requires a ``store``).  Raises
        :class:`~repro.core.sharding.MissingResultsError` (listing the
        missing units and keys) when any entry is absent.  The
        in-process memo is bypassed, so the store genuinely holds
        everything the call returns.
    ppa_backend:
        Source of every design's digital area/power (default: the analytic
        cell-count model; anything
        :func:`~repro.circuits.ppa.resolve_ppa_backend` accepts).  Unlike
        ``jobs``, a non-analytic backend *changes results*, and its
        numbers are not derivable from the experiment configuration -- so
        such runs bypass the memo and the on-disk store entirely (nothing
        report-based is ever cached under a configuration key), and they
        refuse ``cache_only`` mode.
    """
    if jobs is not None and jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one worker per CPU)")
    store, backend = _backend_store(store, ppa_backend, cache_only)
    names = [canonical_name(name) for name in resolve_suite_datasets(datasets, fast)]

    units = {
        name: plan_suite_units(
            (name,), seed, depths, taus,
            include_approximate_variants=(include_approximate_baseline,),
            training_sigma=training_sigma, robustness_weight=robustness_weight,
        ).units
        for name in dict.fromkeys(names)
    }
    memo_keys = {
        name: tuple(unit.store_key for unit in name_units)
        for name, name_units in units.items()
    }
    resolved: dict[str, CoDesignResult] = {}
    if store is not None and not cache_only:
        for name, name_units in units.items():
            memoized = _memo_get(memo_keys[name])
            if memoized is None:
                continue
            # Write-through: keep the disk store complete.
            entries = [replace(memoized, exploration=[], selected={}), *memoized.exploration]
            for unit, entry in zip(name_units, entries):
                if unit.store_key not in store:
                    store.put(unit.store_key, entry)
            resolved[name] = memoized

    pending = [name for name in units if name not in resolved]
    with get_executor(jobs) as executor:
        values, _ = _resolve_units(
            [unit for name in pending for unit in units[name]],
            store, executor, cache_only=cache_only, ppa_backend=backend,
        )
    for name in pending:
        reference, *points = (values[unit.store_key] for unit in units[name])
        resolved[name] = select_designs(reference, points)
        if store is not None and not cache_only:
            _memoize(memo_keys[name], resolved[name])
    return [resolved[name] for name in names]


def _backend_store(store: ResultStore | None, ppa_backend, cache_only: bool):
    """The store a run may use with ``ppa_backend``, and the resolved backend.

    The one rule every design-point runner (the suite and search studies)
    applies: a non-analytic backend's costs are not derivable from a
    configuration key, so such a run gets no store -- and refuses
    ``cache_only``, as does a run given no store at all.  The default
    backend stays ``None`` (see :func:`_compute_job`).
    """
    backend = None
    if ppa_backend not in (None, "analytic"):
        from repro.circuits.ppa import resolve_ppa_backend

        backend = resolve_ppa_backend(ppa_backend)
    if backend is not None and not getattr(backend, "is_analytic", False):
        if cache_only:
            raise InputError(
                "cache_only requires the analytic PPA backend: cached entries "
                "hold analytic costs, which a report backend would contradict"
            )
        store = None
    if cache_only and store is None:
        raise InputError("cache_only requires a store")
    return store, backend


def _compute_job(units: list[WorkUnit], ppa_backend=None, held=None) -> list:
    """Top-level (picklable) job: compute ``units`` from scratch, in order.

    A job is one reference unit, one variation unit, or the point units of
    one depth family (:func:`~repro.core.design.evaluate_family`: one fit,
    cut at every depth).  ``held`` is a variation unit's tree, which it
    simulates (retraining it otherwise -- deterministically, so a unit
    computed on a shard that owns none of its benchmark's points is
    bit-identical to one computed next to the suite), or a Table II
    reference unit's Table I twin (see
    :func:`~repro.core.codesign.reference_designs`).  A reference job runs
    in a :func:`~repro.mltrees.split_search.shared_split_tables` scope, so
    its CART fits share node tables.  The default backend (``None``) is
    resolved here, where a miss computes, so a store replay never imports
    the circuits.
    """
    from repro.circuits.ppa import resolve_ppa_backend

    ppa_backend = resolve_ppa_backend(ppa_backend)
    unit = units[0]
    if unit.kind == "point":
        return evaluate_family([point.spec for point in units], ppa_backend)
    if unit.kind == "suite":
        from repro.mltrees.split_search import shared_split_tables

        with shared_split_tables():
            return [
                reference_designs(
                    DesignSpec(unit.dataset, unit.seed),
                    unit.params["include_approximate_baseline"],
                    ppa_backend,
                    twin=held,
                )
            ]
    return [
        unit.spec.simulate(
            unit.params["sigma_v"],
            unit.params["n_trials"],
            held if held is not None else _variation_classifier(unit.spec),
        )
    ]


def _resolve_units(
    units: list[WorkUnit],
    store: ResultStore | None,
    executor: Executor,
    cache_only: bool = False,
    ppa_backend=None,
    trees: dict | None = None,
) -> tuple[dict[str, object], tuple[str, ...]]:
    """Resolve ``units`` against ``store``: the one probe and fan-out loop.

    Probes every unit once.  Point and Table I reference misses are
    computed in one ``executor.map``; Table II reference and variation
    misses follow in a second one.  A variation job simulates the tree of
    its point unit among ``units`` (or of ``trees``, a
    :class:`~repro.core.design.DesignSpec` -> tree map), retraining only the
    points not at hand.  A Table II reference job extends its twin -- the
    benchmark's Table I reference, from this call's values or else, when
    ``key in store``, from the store -- with baseline [7] alone.  Computed
    values are written to ``store`` (when given); ``cache_only`` raises
    :class:`~repro.core.sharding.MissingResultsError` listing every miss
    instead of computing.  Each call flushes the store's counters once
    (:meth:`~repro.core.store.ResultStore.flush_stats`), before it returns
    or raises, so no runner flushes on its own.  Returns the values by
    store key and the keys this call computed.

    One job is one reference unit, one variation unit, or every point miss
    of one depth family (specs equal but for ``depth``).  ADC-aware trees
    grow breadth-first, so a family's depth-d tree is its deepest tree cut
    at d (the prefix property of
    :class:`~repro.core.adc_aware_training.ADCAwareTrainer`): the job trains
    the deepest missing point once and cuts it for the others, and the
    49-point grid costs seven fits.  Whatever the grouping, each point is
    still probed, keyed, stored and sharded on its own, and its entry is
    byte-identical to a per-point :meth:`~repro.core.design.DesignSpec.evaluate`.
    """
    values: dict[str, object] = {}
    pending: dict[str, WorkUnit] = {}
    for unit in units:
        if unit.store_key in values or unit.store_key in pending:
            continue
        cached = store.get(unit.store_key) if store is not None else None
        if cached is None:
            pending[unit.store_key] = unit
        else:
            values[unit.store_key] = cached
    if pending and cache_only:
        store.flush_stats()
        raise MissingResultsError(
            [(unit.label, unit.store_key) for unit in pending.values()]
        )

    def compute(jobs: list[list[WorkUnit]], held) -> None:
        if not jobs:
            return
        tasks = [(job, ppa_backend, held(job[0])) for job in jobs]
        for job, job_values in zip(jobs, executor.map(_compute_job, tasks)):
            for unit, value in zip(job, job_values):
                if store is not None:
                    store.put(unit.store_key, value)
                values[unit.store_key] = value

    def twin(unit: WorkUnit) -> CoDesignResult | None:
        key = DesignSpec(unit.dataset, unit.seed).reference_key(False)
        if key in values:
            return values[key]
        return store.get(key) if store is not None and key in store else None

    first: dict[object, list[WorkUnit]] = {}
    second: list[WorkUnit] = []
    for key, unit in pending.items():
        if unit.kind == "point":
            first.setdefault(unit.spec.family, []).append(unit)
        elif unit.kind == "suite" and not unit.params["include_approximate_baseline"]:
            first[key] = [unit]
        else:
            second.append(unit)
    compute(list(first.values()), lambda unit: None)
    trees = dict(trees or {})
    trees.update(
        (unit.spec, values[unit.store_key].tree) for unit in units if unit.kind == "point"
    )
    compute(
        [[unit] for unit in second],
        lambda unit: twin(unit) if unit.kind == "suite" else trees.get(unit.spec),
    )
    if store is not None:
        store.flush_stats()
    return values, tuple(pending)


@lru_cache(maxsize=8)
def _variation_classifier(spec: DesignSpec):
    """Train-once memo of the trees variation units simulate.

    A sigma sweep caches one :class:`VariationAnalysis` per sigma, but the
    classifier under test depends only on its :class:`DesignSpec` --
    training it once per spec keeps a cold 5-sigma sweep from paying the
    same fit five times.  Everything is seeded, so the memo never changes
    results.
    """
    return spec.train()


def run_variation_analysis(
    dataset: str,
    sigmas,
    n_trials: int = 100,
    seed: int = 0,
    depth: int = 4,
    tau: float = 0.01,
    jobs: int | None = None,
    store: ResultStore | None = None,
    resolution_bits: int = 4,
    test_size: float = 0.3,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
) -> list[VariationAnalysis]:
    """Monte-Carlo comparator-offset robustness of one co-designed benchmark.

    Trains the ADC-aware tree (``depth`` x ``tau``) on the paper's 70/30
    split of ``dataset`` and Monte-Carlo-simulates its test accuracy under
    Gaussian comparator offsets at every sigma of ``sigmas``, returning one
    :class:`VariationAnalysis` per sigma in the order given.  Each sigma is
    one variation unit of :func:`_resolve_units`, cached under the point's
    :meth:`~repro.core.design.DesignSpec.variation_key` -- the exact entries
    that sharded suite runs, ``explore``, ``surface`` and search studies
    read and write (``store=None`` simulates without a store).  Missing
    sigmas fan out across ``jobs`` worker processes with bit-identical
    results.
    """
    spec = DesignSpec(
        dataset, seed, depth, tau, resolution_bits,
        test_size=test_size,
        training_sigma=training_sigma,
        robustness_weight=robustness_weight,
    )
    units = [variation_work_unit(spec, sigma_v, n_trials) for sigma_v in sigmas]
    with get_executor(jobs) as executor:
        analyses, _ = _resolve_units(units, store, executor)
    return [analyses[unit.store_key] for unit in units]


@dataclass(frozen=True)
class RobustExploration:
    """A depth x tau exploration with per-point robustness columns.

    Produced by :func:`run_robust_exploration`: every design point carries
    the nominal accuracy/hardware numbers *and* a comparator-offset
    Monte-Carlo summary at ``sigma_v``, so designs can be selected under the
    joint (accuracy loss, mean accuracy drop) constraint of the offset-aware
    Table II.
    """

    dataset: str
    sigma_v: float
    n_trials: int
    baseline_accuracy: float
    points: tuple[DesignPoint, ...]
    #: Offset sigma (volts) the *trainer* assumed; 0 for nominal training.
    training_sigma: float = 0.0
    #: Weight of the expected-flip penalty the trainer applied.
    robustness_weight: float = 1.0

    def select(
        self,
        max_accuracy_loss: float = 0.01,
        max_accuracy_drop: float | None = None,
        objective: str = "power",
    ) -> DesignPoint | None:
        """Constrained selection over the robustness-annotated grid."""
        return select_best_design(
            list(self.points),
            self.baseline_accuracy,
            max_accuracy_loss,
            objective=objective,
            max_accuracy_drop=max_accuracy_drop,
        )


def run_robust_exploration(
    dataset: str,
    sigma_v: float,
    n_trials: int = 100,
    seed: int = 0,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    taus: tuple[float, ...] = DEFAULT_TAUS,
    jobs: int | None = None,
    store: ResultStore | None = None,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
    cache_only: bool = False,
    ppa_backend=None,
) -> RobustExploration:
    """Variation-aware design-space exploration of one benchmark.

    Composes the two cache layers: the depth x tau sweep (and the baseline
    it is measured against) comes from :func:`run_benchmark_suite`, and the robustness pass then attaches one
    cached :class:`~repro.core.variation.VariationAnalysis` per design point
    (the variation units shared with ``repro.cli variation`` and
    ``surface``).  Only points absent from the store are
    Monte-Carlo-simulated, fanned out across ``jobs`` worker processes with
    bit-identical results.

    With ``training_sigma > 0`` the sweep's trees are trained offset-aware
    (split scores penalized by the analytic expected digit-flip fraction at
    that sigma); both cache layers key on the training parameters, so
    nominal and offset-aware explorations never alias.

    ``cache_only`` applies the strict assemble discipline: the nominal
    sweep and every per-point analysis must be store hits.
    """
    result, units, analyses = _robustness_pass(
        dataset, (float(sigma_v),), n_trials, seed, depths, taus, jobs, store,
        training_sigma, robustness_weight, cache_only, ppa_backend,
    )
    points = [
        point.with_robustness(analyses[unit.store_key])
        for point, unit in zip(result.exploration, units)
    ]
    return RobustExploration(
        dataset=result.dataset,
        sigma_v=float(sigma_v),
        n_trials=int(n_trials),
        baseline_accuracy=result.baseline.accuracy,
        points=tuple(points),
        training_sigma=float(training_sigma),
        robustness_weight=float(robustness_weight),
    )


def _robustness_pass(
    dataset: str,
    sigmas: tuple[float, ...],
    n_trials: int,
    seed: int,
    depths: tuple[int, ...],
    taus: tuple[float, ...],
    jobs: int | None,
    store: ResultStore | None,
    training_sigma: float,
    robustness_weight: float,
    cache_only: bool,
    ppa_backend,
) -> tuple[CoDesignResult, list[WorkUnit], dict[str, VariationAnalysis]]:
    """One benchmark's nominal suite plus its variation units at ``sigmas``.

    The units are the variation units of the benchmark's
    :func:`~repro.core.sharding.plan_suite_units` plan: sigma-major with the
    grid inner.  Misses simulate the suite's own trees.  Returns the suite
    result, the units and their analyses by store key.  The variation units
    are accuracy-only, so they use ``store`` whatever the PPA backend;
    ``ppa_backend`` only reaches the suite.
    """
    plan = plan_suite_units(
        (dataset,), seed, depths, taus, include_approximate_variants=(),
        sigmas=sigmas, n_trials=n_trials,
        training_sigma=training_sigma, robustness_weight=robustness_weight,
    )
    (result,) = run_benchmark_suite(
        datasets=plan.datasets,
        seed=seed,
        include_approximate_baseline=False,
        depths=depths,
        taus=taus,
        jobs=jobs,
        store=store,
        training_sigma=training_sigma,
        robustness_weight=robustness_weight,
        cache_only=cache_only,
        ppa_backend=ppa_backend,
    )
    points = [unit for unit in plan.units if unit.kind == "point"]
    units = [unit for unit in plan.units if unit.kind == "variation"]
    with get_executor(jobs) as executor:
        analyses, _ = _resolve_units(
            units, store, executor, cache_only=cache_only,
            trees={unit.spec: point.tree for unit, point in zip(points, result.exploration)},
        )
    return result, units, analyses


# ---------------------------------------------------------------------- #
# multi-sigma robustness surface (repro.cli surface)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SurfaceCell:
    """One (sigma, depth, tau) point of a robustness surface.

    The Monte-Carlo summary numbers of the
    :class:`~repro.core.variation.VariationAnalysis` cached under the
    point's variation key, flattened to primitives so a surface record
    serializes without pickling trees.
    """

    sigma_v: float
    depth: int
    tau: float
    nominal_accuracy: float
    mean_accuracy: float
    std_accuracy: float
    min_accuracy: float
    mean_accuracy_drop: float
    worst_case_drop: float


@dataclass(frozen=True)
class RobustnessSurface:
    """The full (sigma x depth x tau) robustness surface of one benchmark.

    Produced by :func:`run_robustness_surface`.  ``cells`` is ordered
    sigma-ascending outer, the grid in the depth-major order of
    :func:`~repro.core.exploration.grid_points` inner -- the exact order a
    multi-sigma :func:`~repro.core.sharding.plan_suite_units` plan
    enumerates the benchmark's variation units in.
    """

    dataset: str
    seed: int
    n_trials: int
    sigmas: tuple[float, ...]
    depths: tuple[int, ...]
    taus: tuple[float, ...]
    training_sigma: float
    robustness_weight: float
    baseline_accuracy: float
    cells: tuple[SurfaceCell, ...]

    def cell(self, sigma_v: float, depth: int, tau: float) -> SurfaceCell:
        """The cell at one (sigma, depth, tau) coordinate (KeyError if absent)."""
        for cell in self.cells:
            if (
                cell.sigma_v == float(sigma_v)
                and cell.depth == int(depth)
                and cell.tau == float(tau)
            ):
                return cell
        raise KeyError(f"no surface cell at sigma={sigma_v:g}, d={depth}, tau={tau:g}")

    def to_json_dict(self) -> dict:
        """JSON-serializable record (stable schema, consumed by renderers)."""
        return {
            "schema_version": 1,
            "kind": "robustness_surface",
            "dataset": self.dataset,
            "seed": self.seed,
            "n_trials": self.n_trials,
            "sigmas": list(self.sigmas),
            "depths": list(self.depths),
            "taus": list(self.taus),
            "training_sigma": self.training_sigma,
            "robustness_weight": self.robustness_weight,
            "baseline_accuracy": self.baseline_accuracy,
            "cells": [
                {
                    "sigma_v": cell.sigma_v,
                    "depth": cell.depth,
                    "tau": cell.tau,
                    "nominal_accuracy": cell.nominal_accuracy,
                    "mean_accuracy": cell.mean_accuracy,
                    "std_accuracy": cell.std_accuracy,
                    "min_accuracy": cell.min_accuracy,
                    "mean_accuracy_drop": cell.mean_accuracy_drop,
                    "worst_case_drop": cell.worst_case_drop,
                }
                for cell in self.cells
            ],
        }


def run_robustness_surface(
    dataset: str,
    sigmas,
    n_trials: int = 100,
    seed: int = 0,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    taus: tuple[float, ...] = DEFAULT_TAUS,
    jobs: int | None = None,
    store: ResultStore | None = None,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
    cache_only: bool = False,
    ppa_backend=None,
) -> RobustnessSurface:
    """Map the (sigma x depth x tau) robustness surface of one benchmark.

    The sweep-level composition of the per-point variation cache: for every
    sigma in ``sigmas`` (canonicalized by
    :func:`~repro.core.sharding.normalize_sigmas`) and every grid point, one
    :class:`~repro.core.variation.VariationAnalysis` is resolved under the
    exact key a multi-sigma suite plan computes
    (:func:`~repro.core.sharding.variation_work_unit`), and the nominal
    baseline and trees come from the suite.  Units absent from the store
    fan out through the executor, simulating the suite's trees -- unless
    ``cache_only`` is set, the strict assemble discipline: *never* compute,
    raise
    :class:`~repro.core.sharding.MissingResultsError` listing every missing
    unit label and key.  On a store assembled from a multi-sigma sharded run
    the whole surface therefore renders from cache hits only, and the
    per-sigma entries it resolves are the same ones a
    ``mean_accuracy_drop`` search study probes for its warm start.
    """
    sigma_values = normalize_sigmas(sigmas)
    if not sigma_values:
        raise ValueError("at least one sigma is required")
    training_sigma, robustness_weight = canonical_training_knobs(
        training_sigma, robustness_weight
    )
    result, units, analyses = _robustness_pass(
        dataset, sigma_values, n_trials, seed, depths, taus, jobs, store,
        training_sigma, robustness_weight, cache_only, ppa_backend,
    )
    cells = []
    for unit in units:
        analysis = analyses[unit.store_key]
        cells.append(
            SurfaceCell(
                sigma_v=unit.params["sigma_v"],
                depth=unit.spec.depth,
                tau=unit.spec.tau,
                nominal_accuracy=analysis.nominal_accuracy,
                mean_accuracy=analysis.mean_accuracy,
                std_accuracy=analysis.std_accuracy,
                min_accuracy=analysis.min_accuracy,
                mean_accuracy_drop=analysis.mean_accuracy_drop,
                worst_case_drop=analysis.worst_case_drop,
            )
        )
    return RobustnessSurface(
        dataset=result.dataset,
        seed=int(seed),
        n_trials=int(n_trials),
        sigmas=sigma_values,
        depths=tuple(depths),
        taus=tuple(taus),
        training_sigma=float(training_sigma),
        robustness_weight=float(robustness_weight),
        baseline_accuracy=result.baseline.accuracy,
        cells=tuple(cells),
    )


# ---------------------------------------------------------------------- #
# sharded execution (repro.cli suite / assemble)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardRunReport:
    """What one shard run did: unit counts, reuse, and where results went."""

    shard: ShardSpec | None
    n_units: int
    reused: int

    @property
    def computed(self) -> int:
        """Units this run actually paid for (the rest were store hits)."""
        return self.n_units - self.reused


def run_plan_shard(
    plan: SuitePlan,
    shard: ShardSpec | None = None,
    jobs: int | None = None,
    store: ResultStore | None = None,
) -> ShardRunReport:
    """Compute one shard's work units of ``plan`` into the result store.

    Every unit missing from the store is one job of the executor fan-out;
    variation units simulate the trees of this shard's point units and
    retrain the others.  Everything lands under the exact keys the unsharded
    entry points use, so an assemble step -- or any later
    ``table1``/``table2``/``explore``/``search`` invocation -- resolves the
    shard's work as plain cache hits (``store=None`` computes them without
    keeping any).
    """
    units = plan.shard(shard)
    with get_executor(jobs) as executor:
        _, computed = _resolve_units(units, store, executor)
    return ShardRunReport(
        shard=shard, n_units=len(units), reused=len(units) - len(computed)
    )
