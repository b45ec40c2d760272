"""Deterministic work-unit planning for sharded suite execution.

A *work unit* is one store-addressable computation of the benchmark suite:

* a ``suite`` unit -- the reference designs of one benchmark dataset at one
  ``include_approximate_baseline`` variant: baseline [2], its unary
  re-implementation and, for the ``True`` variant, the approximate baseline
  [7] (Table I and Figs. 4/5 render from the ``False`` variant, Table II
  from ``True``);
* a ``point`` unit -- one trained, scored and costed design point, i.e. one
  :class:`~repro.core.design.DesignSpec` (a suite's exploration is its 49
  point units on the paper grid), and
* a ``variation`` unit -- one comparator-offset Monte-Carlo summary of one
  design point at a given sigma and trial count (the per-point cache
  granularity shared by ``repro.cli variation``, ``explore`` and
  ``surface``).

:func:`plan_suite_units` enumerates the units of a suite configuration in a
canonical order, and every unit assigns itself to one of ``N`` shards by
**stable hashing** (:meth:`WorkUnit.shard_index`): SHA-256 of the unit's
canonical identity, which contains only *what* is computed -- dataset, seed,
grid, sigma, training knobs -- never the code version, the enumeration
order, or anything process-specific.  Shard membership is therefore
reproducible across machines and invariant to dataset ordering: shard
``K/N`` computes the same subset wherever it runs, and the union over
``K = 1..N`` is a disjoint cover of the full plan.

Each shard computes its units into its own
:class:`~repro.core.store.ResultStore`, ships the store as a CI artifact
(:meth:`~repro.core.store.ResultStore.export_archive`), and a final
assemble step folds the shard stores into one
(:meth:`~repro.core.store.ResultStore.merge_from`) and renders every table
from cache hits only (``repro.cli assemble``), raising
:class:`MissingResultsError` -- with the missing keys listed -- when any
planned unit was never computed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.design import DesignSpec
from repro.core.exploration import DEFAULT_DEPTHS, DEFAULT_TAUS, grid_points
from repro.datasets.registry import canonical_name


def normalize_sigmas(sigmas) -> tuple[float, ...]:
    """Canonicalize a sigma request to a sorted, deduplicated tuple.

    Accepts any iterable of floats, a single float, or ``None`` (empty
    tuple -- no variation units planned).  The canonical form is ascending
    and duplicate-free, so two requests naming the same sigma set -- in any
    order, with repeats -- plan the same units.
    """
    if sigmas is None:
        sigmas = ()
    if isinstance(sigmas, (int, float)):
        sigmas = (sigmas,)
    values = []
    for sigma in sigmas:
        sigma = float(sigma)
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma:g}")
        values.append(sigma)
    return tuple(sorted(set(values)))


@dataclass(frozen=True)
class ShardSpec:
    """One shard of an ``N``-way split, written ``K/N`` (1-based)."""

    index: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("shard count must be >= 1")
        if not 1 <= self.index <= self.count:
            raise ValueError(
                f"shard index must be in 1..{self.count}, got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI spelling ``"K/N"`` (e.g. ``"2/3"``)."""
        head, sep, tail = str(text).strip().partition("/")
        try:
            if not sep:
                raise ValueError
            index, count = int(head), int(tail)
        except ValueError:
            raise ValueError(
                f"shard must be spelled K/N (e.g. 2/3), got {text!r}"
            ) from None
        return cls(index=index, count=count)

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


@dataclass(frozen=True)
class WorkUnit:
    """One store-addressable computation of a suite plan.

    ``identity`` is the unit's canonical, code-version-independent identity
    (primitives only) -- the sole input of the shard hash, so membership
    survives version bumps even though ``store_key`` does not.  ``spec``
    (the design point of a ``point`` or ``variation`` unit) and ``params``
    carry everything else needed to compute the unit; neither participates
    in equality or hashing.
    """

    kind: str  #: ``"suite"``, ``"point"`` or ``"variation"``
    dataset: str
    seed: int
    label: str  #: human-readable name used in plans and error listings
    store_key: str  #: content address of the result in the ResultStore
    identity: tuple
    spec: DesignSpec | None = field(default=None, compare=False, repr=False)
    params: dict = field(default_factory=dict, compare=False, repr=False)

    def shard_index(self, n_shards: int) -> int:
        """Stable 1-based shard assignment of this unit among ``n_shards``.

        SHA-256 of the canonical JSON form of :attr:`identity`: independent
        of ``PYTHONHASHSEED``, the host, the process, and the order the plan
        enumerated its units in.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        rendered = json.dumps(self.identity, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(rendered.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % n_shards + 1


def _spec_identity(spec: DesignSpec) -> tuple:
    """Primitive identity of a default-technology design point."""
    return (
        spec.dataset, spec.seed, spec.depth, spec.tau, spec.resolution_bits,
        spec.test_size, spec.training_sigma, spec.robustness_weight,
    )


def suite_work_unit(
    dataset: str, seed: int, include_approximate_baseline: bool
) -> WorkUnit:
    """The work unit of one benchmark's reference designs (one cache entry)."""
    base = DesignSpec(dataset, seed)
    variant = "table2" if include_approximate_baseline else "table1"
    return WorkUnit(
        kind="suite",
        dataset=base.dataset,
        seed=base.seed,
        label=f"suite:{base.dataset}[{variant}]",
        store_key=base.reference_key(include_approximate_baseline),
        identity=("suite", base.dataset, base.seed, bool(include_approximate_baseline)),
        params={"include_approximate_baseline": bool(include_approximate_baseline)},
    )


def point_work_unit(spec: DesignSpec) -> WorkUnit:
    """The work unit of one trained, scored and costed design point."""
    return WorkUnit(
        kind="point",
        dataset=spec.dataset,
        seed=spec.seed,
        label=f"point:{spec.label}",
        store_key=spec.key(),
        identity=("point", *_spec_identity(spec)),
        spec=spec,
    )


def variation_work_unit(spec: DesignSpec, sigma_v: float, n_trials: int) -> WorkUnit:
    """The work unit of one per-point offset Monte-Carlo (one cache entry)."""
    return WorkUnit(
        kind="variation",
        dataset=spec.dataset,
        seed=spec.seed,
        label=f"variation:{spec.dataset}[d={spec.depth},tau={spec.tau:g},sigma={sigma_v:g}]",
        store_key=spec.variation_key(sigma_v, n_trials),
        identity=("variation", *_spec_identity(spec), float(sigma_v), int(n_trials)),
        spec=spec,
        params={"sigma_v": float(sigma_v), "n_trials": int(n_trials)},
    )


class MissingResultsError(RuntimeError):
    """A cache-only run found planned units absent from the store.

    ``missing`` holds ``(label, store_key)`` pairs -- enough to see *which*
    shard never ran and to look the keys up by hand.  The message lists
    every pair, so a failed CI assemble names the gap instead of a generic
    nonzero exit.
    """

    def __init__(self, missing):
        self.missing: tuple[tuple[str, str], ...] = tuple(
            (str(label), str(key)) for label, key in missing
        )
        lines = "\n".join(f"  {label}  {key}" for label, key in self.missing)
        super().__init__(
            f"{len(self.missing)} planned unit(s) missing from the result "
            f"store (was a shard skipped?):\n{lines}"
        )


@dataclass(frozen=True)
class SuitePlan:
    """The deterministic work-unit enumeration of one suite configuration.

    The canonical benchmark and sigma lists (what the assemble step renders)
    and the canonical unit tuple; every unit carries what computing it
    needs.  Partitioning happens per unit via :meth:`WorkUnit.shard_index`;
    :meth:`shard` filters, :meth:`missing` diffs the plan against a store.
    """

    datasets: tuple[str, ...]
    sigmas: tuple[float, ...]
    units: tuple[WorkUnit, ...]

    def shard(self, spec: ShardSpec | None) -> tuple[WorkUnit, ...]:
        """The units assigned to ``spec`` (all units when ``spec`` is None)."""
        if spec is None:
            return self.units
        return tuple(
            unit for unit in self.units
            if unit.shard_index(spec.count) == spec.index
        )

    def missing(self, store) -> tuple[WorkUnit, ...]:
        """Planned units whose results are absent from ``store``.

        Pure membership checks: never loads entries, never counts store
        misses -- so a subsequent cache-only render still reports zero
        misses on a complete store.
        """
        return tuple(unit for unit in self.units if unit.store_key not in store)


def plan_suite_units(
    datasets: tuple[str, ...] | None = None,
    seed: int = 0,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    taus: tuple[float, ...] = DEFAULT_TAUS,
    fast: bool = False,
    include_approximate_variants: tuple[bool, ...] = (False, True),
    sigmas: tuple[float, ...] | None = None,
    n_trials: int = 100,
    training_sigma: float = 0.0,
    robustness_weight: float = 1.0,
) -> SuitePlan:
    """Enumerate the work units of one suite configuration, in canonical order.

    Suite units come first (dataset-major, the ``include_approximate``
    variants inner), then one point unit per (dataset, depth, tau) in the
    depth-major order of :func:`~repro.core.exploration.grid_points`; with
    ``sigmas`` given, one variation unit per (dataset, sigma, depth, tau)
    point follows (dataset-major, sigmas ascending, the grid inner).  The
    sigma request is canonicalized by :func:`normalize_sigmas` before
    enumeration, so per-unit identities -- and therefore shard membership
    and store keys -- are invariant to sigma ordering and duplicates.  The
    enumeration order is presentation only -- shard membership depends on
    each unit's identity alone, so reordering ``datasets`` never moves a
    unit between shards.
    """
    # Deferred: experiments imports this module (layering: analysis -> core).
    from repro.analysis.experiments import resolve_suite_datasets

    requested = resolve_suite_datasets(datasets, fast)
    names = tuple(dict.fromkeys(canonical_name(name) for name in requested))
    sigma_values = normalize_sigmas(sigmas)
    specs = {
        name: [
            DesignSpec(
                name, seed, depth, tau,
                training_sigma=training_sigma, robustness_weight=robustness_weight,
            )
            for depth, tau in grid_points(depths, taus)
        ]
        for name in names
    }
    units: list[WorkUnit] = [
        suite_work_unit(name, seed, variant)
        for name in names
        for variant in include_approximate_variants
    ]
    units += [point_work_unit(spec) for name in names for spec in specs[name]]
    units += [
        variation_work_unit(spec, sigma, n_trials)
        for name in names
        for sigma in sigma_values
        for spec in specs[name]
    ]
    return SuitePlan(datasets=names, sigmas=sigma_values, units=tuple(units))
