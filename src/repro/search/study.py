"""Budgeted study orchestration: ask/tell batches over cached trials.

:class:`Study` runs a :class:`~repro.search.optimizer.ParetoTPESampler`
against one benchmark dataset for a fixed trial budget.  Each sampled
configuration is one :class:`~repro.core.design.DesignSpec`, so a trial is
the spec's ``point`` work unit (plus its ``variation`` unit for robustness
objectives), resolved by the same store fan-out the suite, shards and
surfaces use: from the entry a suite sweep, a shard or an earlier study
wrote (the warm-start that makes a nightly study against the assembled CI
store nearly free), and otherwise from a fresh, fully seeded computation
fanned through the :class:`~repro.core.executor.Executor`.  Both paths run
the same recipe, so a warm-started trial and a freshly trained one are
bit-identical.  Batches have a
fixed size independent of ``jobs`` and the sampler is told in trial-number
order, so ``jobs=1`` and ``jobs=N`` produce identical study records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.design import DesignSpec
from repro.core.executor import get_executor
from repro.core.pareto import non_dominated_indices
from repro.core.sharding import point_work_unit, variation_work_unit
from repro.core.store import ResultStore
from repro.pdk.egfet import default_technology
from repro.search.optimizer import ParetoTPESampler
from repro.search.space import SearchSpace, paper_space

#: Objective metrics a study can minimize.  Maximized metrics (accuracy)
#: are requested with a leading ``-`` ("minimize the negated metric").
OBJECTIVE_METRICS = ("accuracy", "power", "area", "mean_accuracy_drop")

#: Named technology corners a trial configuration may select.  Only the
#: calibrated EGFET corner exists today; the indirection keeps technology a
#: first-class search dimension for when more corners land.
_TECHNOLOGIES = {"default": default_technology}

#: JSON study-record layout version (``repro.cli search --json``).
STUDY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Objective:
    """One parsed objective: the metric and the minimization sign."""

    metric: str
    sign: float  #: +1 minimizes the metric, -1 minimizes its negation
    spec: str  #: the original spelling, kept for records and labels

    def value(self, trial: "Trial") -> float:
        metric = getattr(trial, _METRIC_FIELDS[self.metric])
        if metric is None:
            raise ValueError(
                f"trial {trial.number} has no {self.metric!r} measurement"
            )
        return self.sign * float(metric)


_METRIC_FIELDS = {
    "accuracy": "accuracy",
    "power": "power_uw",
    "area": "area_mm2",
    "mean_accuracy_drop": "mean_accuracy_drop",
}


def parse_objectives(specs) -> tuple[Objective, ...]:
    """Parse objective spellings like ``("-accuracy", "power")``.

    Every objective is minimized; a leading ``-`` negates the metric first
    (so ``-accuracy`` maximizes accuracy).  At least two objectives are
    required -- a single-objective request is a constrained selection, not
    a Pareto search (use :func:`repro.core.exploration.select_best_design`).
    """
    parsed = []
    for spec in specs:
        spec = str(spec).strip()
        sign, metric = (
            (-1.0, spec[1:]) if spec.startswith("-") else (1.0, spec)
        )
        if metric not in OBJECTIVE_METRICS:
            raise ValueError(
                f"unknown objective {spec!r}; metrics: {OBJECTIVE_METRICS} "
                "(prefix with '-' to maximize)"
            )
        parsed.append(Objective(metric=metric, sign=sign, spec=spec))
    if len(parsed) < 2:
        raise ValueError("a multi-objective study needs at least two objectives")
    if len({o.metric for o in parsed}) != len(parsed):
        raise ValueError("objectives must use distinct metrics")
    return tuple(parsed)


@dataclass(frozen=True)
class Trial:
    """One evaluated configuration of a study."""

    number: int
    config: dict = field(repr=False)
    store_key: str = field(repr=False)
    accuracy: float
    power_uw: float
    area_mm2: float
    mean_accuracy_drop: float | None
    from_cache: bool
    objectives: tuple[float, ...]

    def record(self) -> dict:
        """JSON-serializable row of the study record."""
        return {
            "number": self.number,
            "config": dict(self.config),
            "from_cache": self.from_cache,
            "accuracy": self.accuracy,
            "power_uw": self.power_uw,
            "area_mm2": self.area_mm2,
            "mean_accuracy_drop": self.mean_accuracy_drop,
            "objectives": list(self.objectives),
        }


@dataclass(frozen=True)
class StudyResult:
    """Outcome of one :meth:`Study.run`: trials, front, cache accounting.

    Deliberately timestamp-free: the record is a pure function of the study
    configuration and the seed, so bit-reproducibility (and the serial ==
    parallel guarantee) can be asserted on the serialized form directly.
    """

    dataset: str
    seed: int
    budget: int
    batch_size: int
    objectives: tuple[str, ...]
    sigma_v: float | None
    variation_trials: int
    space: dict
    trials: tuple[Trial, ...]
    front_numbers: tuple[int, ...]
    n_from_cache: int
    n_trained: int

    @property
    def front(self) -> tuple[Trial, ...]:
        """The non-dominated trials, sorted by objective tuple."""
        by_number = {trial.number: trial for trial in self.trials}
        return tuple(by_number[n] for n in self.front_numbers)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": STUDY_SCHEMA_VERSION,
            "kind": "search_study",
            "dataset": self.dataset,
            "seed": self.seed,
            "budget": self.budget,
            "batch_size": self.batch_size,
            "objectives": list(self.objectives),
            "sigma_v": self.sigma_v,
            "variation_trials": self.variation_trials,
            "space": self.space,
            "n_trials": len(self.trials),
            "n_from_cache": self.n_from_cache,
            "n_trained": self.n_trained,
            "trials": [trial.record() for trial in self.trials],
            "front": list(self.front_numbers),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _resolve_technology(name: str):
    try:
        return _TECHNOLOGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown technology {name!r}; known: {tuple(sorted(_TECHNOLOGIES))}"
        ) from None


class Study:
    """A budgeted multi-objective search over one benchmark dataset.

    Parameters
    ----------
    dataset:
        Benchmark name (paper abbreviations resolve like everywhere else).
    space:
        The :class:`~repro.search.space.SearchSpace` to sample (default:
        the paper grid).
    objectives:
        Objective spellings, each minimized; prefix ``-`` to maximize
        (default ``("-accuracy", "power")``).  ``mean_accuracy_drop``
        requires ``sigma_v``.
    seed:
        Seeds the sampler *and* every trial's training/split/simulation.
    sigma_v / variation_trials:
        Comparator-offset Monte-Carlo configuration, needed only when an
        objective reads ``mean_accuracy_drop``.  Summaries resolve through
        the exact variation keys ``repro.cli variation`` / ``explore`` use,
        so studies share their Monte-Carlo pool.
    store / cache_dir / use_cache:
        Result-store wiring, same contract as the suite runners.
    cache_only:
        Strict assemble discipline: every trial must resolve from the store
        (its design point and -- for robustness objectives -- its
        variation entry); a trial that would have to train
        raises :class:`~repro.core.sharding.MissingResultsError` listing the
        missing keys instead.  The mode CI uses to *prove* a study
        warm-started 100 % from an assembled store.
    batch_size:
        Trials asked (and fanned out) per ask/tell round.  Fixed
        independently of ``jobs`` -- that is what keeps serial and parallel
        study records identical.
    sampler:
        Optional pre-built sampler (tests inject deterministic stubs);
        defaults to a :class:`~repro.search.optimizer.ParetoTPESampler`
        seeded with ``seed``.
    ppa_backend:
        Source of every trial's hardware costs (default: the analytic
        cell-count model, bit-identical to before the backend interface
        existed).  A non-analytic backend changes the power/area objectives,
        so such studies never read or write the store (and
        refuse ``cache_only``): report-backed numbers must not alias the
        analytic entries stored under the same configuration keys.
    """

    def __init__(
        self,
        dataset: str,
        space: SearchSpace | None = None,
        objectives=("-accuracy", "power"),
        seed: int = 0,
        sigma_v: float | None = None,
        variation_trials: int = 100,
        store: ResultStore | None = None,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
        test_size: float = 0.3,
        batch_size: int = 4,
        sampler: ParetoTPESampler | None = None,
        cache_only: bool = False,
        ppa_backend=None,
    ):
        from repro.circuits.ppa import resolve_ppa_backend
        from repro.datasets.registry import canonical_name

        self.ppa_backend = resolve_ppa_backend(ppa_backend)
        if not getattr(self.ppa_backend, "is_analytic", False):
            if cache_only:
                raise ValueError(
                    "cache_only requires the analytic PPA backend: cached "
                    "trials hold analytic costs, which a report backend "
                    "would contradict"
                )
            use_cache = False
        if cache_only and not use_cache:
            raise ValueError("cache_only requires use_cache=True")
        self.cache_only = bool(cache_only)
        self.dataset = canonical_name(dataset)
        self.space = space if space is not None else paper_space()
        self.objectives = parse_objectives(objectives)
        self.seed = int(seed)
        self.sigma_v = None if sigma_v is None else float(sigma_v)
        self.variation_trials = int(variation_trials)
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)
        self.test_size = float(test_size)
        self.use_cache = bool(use_cache)
        if any(o.metric == "mean_accuracy_drop" for o in self.objectives):
            if self.sigma_v is None:
                raise ValueError(
                    "the mean_accuracy_drop objective requires sigma_v"
                )
        if self.use_cache and store is None:
            from repro.analysis.experiments import default_store

            store = ResultStore(cache_dir) if cache_dir is not None else default_store()
        self.store = store if self.use_cache else None
        self.sampler = (
            sampler
            if sampler is not None
            else ParetoTPESampler(self.space, seed=self.seed)
        )

    # ------------------------------------------------------------------ #
    # cache identity
    # ------------------------------------------------------------------ #
    def spec(self, config: dict) -> DesignSpec:
        """The design point one configuration evaluates."""
        config = self.space.canonical(config)
        return DesignSpec(
            self.dataset,
            self.seed,
            config["depth"],
            config["tau"],
            config["resolution_bits"],
            technology=_resolve_technology(config["technology"]),
            test_size=self.test_size,
            training_sigma=config["training_sigma"],
            robustness_weight=config["robustness_weight"],
        )

    def trial_key(self, config: dict) -> str:
        """The canonical cache identity of one configuration's outcome."""
        return self.spec(config).key()

    # ------------------------------------------------------------------ #
    # the run loop
    # ------------------------------------------------------------------ #
    def run(self, budget: int, jobs: int | None = None) -> StudyResult:
        """Evaluate up to ``budget`` trials and extract the Pareto front.

        Stops early when the sampler exhausts a finite space.  ``jobs``
        fans each batch's unresolved trials across worker processes;
        results are bit-identical to a serial run.
        """
        if budget < 0:
            raise ValueError("budget must be >= 0")
        trials: list[Trial] = []
        n_from_cache = n_trained = 0
        with get_executor(jobs) as executor:
            while len(trials) < budget:
                configs = self.sampler.ask(min(self.batch_size, budget - len(trials)))
                if not configs:
                    break
                batch = self._evaluate_batch(configs, executor, len(trials))
                for trial in batch:
                    trials.append(trial)
                    # Tell in trial-number order: the sampler state -- and
                    # thus every later ask -- is independent of `jobs`.
                    self.sampler.tell(trial.config, trial.objectives)
                    n_from_cache += int(trial.from_cache)
                    n_trained += int(not trial.from_cache)
        if self.store is not None:
            self.store.record_search_stats(
                from_cache=n_from_cache, trained=n_trained
            )
            self.store.flush_stats()
        front = non_dominated_indices([trial.objectives for trial in trials])
        front_numbers = tuple(
            trials[i].number
            for i in sorted(front, key=lambda i: (trials[i].objectives, i))
        )
        return StudyResult(
            dataset=self.dataset,
            seed=self.seed,
            budget=int(budget),
            batch_size=self.batch_size,
            objectives=tuple(o.spec for o in self.objectives),
            sigma_v=self.sigma_v,
            variation_trials=self.variation_trials,
            space=self.space.describe(),
            trials=tuple(trials),
            front_numbers=front_numbers,
            n_from_cache=n_from_cache,
            n_trained=n_trained,
        )

    def _evaluate_batch(self, configs, executor, first_number: int) -> list[Trial]:
        """Resolve one ask batch through the shared store fan-out.

        Each trial is its point unit plus, with ``sigma_v``, its variation
        unit; a trial is ``from_cache`` when the batch computed neither.
        """
        # Deferred: analysis orchestrates, search stays importable on its own.
        from repro.analysis.experiments import _resolve_units

        trial_units = []
        for config in configs:
            spec = self.spec(config)
            units = [point_work_unit(spec)]
            if self.sigma_v is not None:
                units.append(
                    variation_work_unit(spec, self.sigma_v, self.variation_trials)
                )
            trial_units.append(units)
        values, computed = _resolve_units(
            [unit for units in trial_units for unit in units],
            self.store,
            executor,
            cache_only=self.cache_only,
            ppa_backend=self.ppa_backend,
        )

        batch: list[Trial] = []
        for number, (config, units) in enumerate(zip(configs, trial_units), first_number):
            point, *analysis = (values[unit.store_key] for unit in units)
            partial = Trial(
                number=number,
                config=config,
                store_key=units[0].store_key,
                accuracy=float(point.accuracy),
                power_uw=float(point.hardware.total_power_uw),
                area_mm2=float(point.hardware.total_area_mm2),
                mean_accuracy_drop=(
                    float(analysis[0].mean_accuracy_drop) if analysis else None
                ),
                from_cache=not any(unit.store_key in computed for unit in units),
                objectives=(),
            )
            objectives = tuple(o.value(partial) for o in self.objectives)
            batch.append(replace(partial, objectives=objectives))
        return batch
