"""Seeded multi-objective optimization primitives (dependency-free).

Three layers, all over **minimize-tuples** (maximized metrics enter
negated, see :func:`repro.search.study.parse_objectives`):

* :func:`non_dominated_sort` -- NSGA-II-style front peeling built on the
  brute-force dominance primitives of :mod:`repro.core.pareto` (which the
  property tests use as the oracle);
* :func:`crowding_distance` and :func:`hypervolume` -- the diversity and
  front-quality measures (exact 2-D sweep, recursive slicing beyond);
* :class:`ParetoTPESampler` -- a seeded ask/tell sampler: uniform startup
  trials, then candidates are perturbations of the current elite set
  (front rank + crowding) scored by a Parzen-window density ratio
  ``l(x) / g(x)`` in the encoded unit hypercube, TPE-style.  Everything is
  drawn from one ``numpy`` Generator in a fixed order, so a seed fully
  determines the trial sequence -- the bit-reproducibility the study
  guarantees build on.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.pareto import non_dominated_indices
from repro.search.space import CategoricalDimension, SearchSpace


def non_dominated_sort(objectives) -> list[list[int]]:
    """Partition minimize-tuples into successive non-dominated fronts.

    Front 0 is exactly the brute-force non-dominated set of the input;
    front ``k`` is the non-dominated set once fronts ``0..k-1`` are
    removed (NSGA-II's peeling).  Indices within a front keep input order.
    """
    objectives = [tuple(float(v) for v in row) for row in objectives]
    remaining = list(range(len(objectives)))
    fronts: list[list[int]] = []
    while remaining:
        local = non_dominated_indices([objectives[i] for i in remaining])
        front = [remaining[i] for i in local]
        fronts.append(front)
        selected = set(front)
        remaining = [i for i in remaining if i not in selected]
    return fronts


def crowding_distance(objectives) -> list[float]:
    """NSGA-II crowding distance of each point *within one front*.

    Boundary points of every objective get ``inf`` (they are always kept);
    interior points get the normalized side-length sum of their bounding
    cuboid.  Larger means less crowded.  The caller passes one front at a
    time -- mixing fronts makes the distances meaningless.
    """
    n = len(objectives)
    if n == 0:
        return []
    objectives = [tuple(float(v) for v in row) for row in objectives]
    n_objectives = len(objectives[0])
    distances = [0.0] * n
    for axis in range(n_objectives):
        order = sorted(range(n), key=lambda i: objectives[i][axis])
        low = objectives[order[0]][axis]
        high = objectives[order[-1]][axis]
        distances[order[0]] = distances[order[-1]] = math.inf
        span = high - low
        if span <= 0:
            continue
        for rank in range(1, n - 1):
            i = order[rank]
            if distances[i] == math.inf:
                continue
            previous = objectives[order[rank - 1]][axis]
            following = objectives[order[rank + 1]][axis]
            distances[i] += (following - previous) / span
    return distances


def hypervolume(points, reference) -> float:
    """Hypervolume dominated by minimize-tuples ``points`` w.r.t. ``reference``.

    The reference point must be weakly worse than every point that should
    contribute; points not strictly better than the reference on every
    component contribute nothing and are dropped.  Exact: a linear sweep in
    2-D, recursive slicing along the last objective beyond (fine for the
    front sizes a study produces).
    """
    reference = tuple(float(r) for r in reference)
    n_objectives = len(reference)
    clipped = []
    for point in points:
        point = tuple(float(v) for v in point)
        if len(point) != n_objectives:
            raise ValueError(
                f"point has {len(point)} objectives, reference has {n_objectives}"
            )
        if all(v < r for v, r in zip(point, reference)):
            clipped.append(point)
    if not clipped:
        return 0.0
    front = [clipped[i] for i in non_dominated_indices(clipped)]
    front = sorted(set(front))
    if n_objectives == 1:
        return reference[0] - min(p[0] for p in front)
    if n_objectives == 2:
        # Sweep ascending in the first objective; the non-dominated front is
        # strictly descending in the second, so each point owns the slab up
        # to its successor's first coordinate.
        total = 0.0
        for i, (x, y) in enumerate(front):
            x_next = front[i + 1][0] if i + 1 < len(front) else reference[0]
            total += (x_next - x) * (reference[1] - y)
        return total
    # Slice along the last objective: each slab's thickness times the
    # (n-1)-dimensional hypervolume of the points already "active".
    levels = sorted({p[-1] for p in front})
    total = 0.0
    for k, level in enumerate(levels):
        thickness = (levels[k + 1] if k + 1 < len(levels) else reference[-1]) - level
        active = [p[:-1] for p in front if p[-1] <= level]
        total += thickness * hypervolume(active, reference[:-1])
    return total


def pareto_rank_order(objectives) -> list[int]:
    """Indices ordered best-first by (front rank, crowding distance).

    The NSGA-II selection order: earlier fronts first, and within a front
    less-crowded points first.  Ties keep input order (stable), so the
    ordering -- and everything built on it -- is deterministic.
    """
    order: list[int] = []
    for front in non_dominated_sort(objectives):
        distances = crowding_distance([objectives[i] for i in front])
        ranked = sorted(
            range(len(front)), key=lambda j: (-distances[j], front[j])
        )
        order.extend(front[j] for j in ranked)
    return order


class ParetoTPESampler:
    """Seeded ask/tell sampler over a :class:`~repro.search.space.SearchSpace`.

    Parameters
    ----------
    space:
        The parameter space; proposals live in its encoded unit hypercube.
    seed:
        Seeds the single Generator every draw comes from; the seed plus the
        tell sequence fully determine every ask.
    n_startup_trials:
        Uniform random trials before the model kicks in (the exploration
        phase every TPE needs).
    n_candidates:
        Candidate perturbations scored per proposal; the density-ratio
        argmax among them is suggested.
    gamma:
        Fraction of observed trials forming the elite ("good") split, by
        NSGA-II order (front rank, then crowding).
    bandwidth:
        Gaussian Parzen bandwidth in the encoded space (numeric dims).

    Dedup: a configuration is never suggested twice (canonical
    :meth:`~repro.search.space.SearchSpace.config_id` identity); on a
    finite space whose configurations are exhausted, :meth:`ask` returns
    fewer than requested (possibly zero) rather than repeating itself.
    """

    def __init__(
        self,
        space: SearchSpace,
        seed: int = 0,
        n_startup_trials: int = 6,
        n_candidates: int = 24,
        gamma: float = 0.35,
        bandwidth: float = 0.2,
    ):
        if n_startup_trials < 1:
            raise ValueError("n_startup_trials must be >= 1")
        if n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if not 0 < gamma < 1:
            raise ValueError("gamma must be in (0, 1)")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.space = space
        self.seed = int(seed)
        self.n_startup_trials = int(n_startup_trials)
        self.n_candidates = int(n_candidates)
        self.gamma = float(gamma)
        self.bandwidth = float(bandwidth)
        self._rng = np.random.default_rng(self.seed)
        #: config_id -> canonical config, everything ever suggested.
        self._suggested: dict[str, dict] = {}
        #: (encoded vector, objectives) of every told trial, tell order.
        self._observations: list[tuple[tuple[float, ...], tuple[float, ...]]] = []
        self._categorical = [
            isinstance(dim, CategoricalDimension) for dim in space.dimensions
        ]
        self._numeric_axes = [a for a, cat in enumerate(self._categorical) if not cat]
        self._categorical_axes = [a for a, cat in enumerate(self._categorical) if cat]
        #: Choice counts of the categorical axes; their choices are numbered
        #: consecutively ("bins"), axis after axis.
        n_choices = [space.dimensions[a].n_choices for a in self._categorical_axes]
        self._n_choices = np.array(n_choices, dtype=float)[:, None]
        self._bin_offsets = np.cumsum([0] + n_choices[:-1], dtype=np.intp)[:, None]
        self._bin_n_choices = np.repeat(n_choices, n_choices)
        #: (observation count, good vectors, good tables, bad tables).
        self._split = None

    # ------------------------------------------------------------------ #
    # ask / tell
    # ------------------------------------------------------------------ #
    def ask(self, n: int = 1) -> list[dict]:
        """Suggest up to ``n`` fresh canonical configurations."""
        if n < 0:
            raise ValueError("n must be >= 0")
        batch: list[dict] = []
        for _ in range(n):
            config = self._propose_unseen()
            if config is None:
                break
            self._suggested[self.space.config_id(config)] = config
            batch.append(config)
        return batch

    def tell(self, config: dict, objectives) -> None:
        """Record one evaluated trial (objectives: minimize-tuple)."""
        config = self.space.canonical(config)
        self._suggested.setdefault(self.space.config_id(config), config)
        self._observations.append(
            (self.space.encode(config), tuple(float(v) for v in objectives))
        )

    @property
    def n_observed(self) -> int:
        return len(self._observations)

    # ------------------------------------------------------------------ #
    # proposal machinery
    # ------------------------------------------------------------------ #
    def _propose_unseen(self) -> dict | None:
        cardinality = self.space.cardinality
        if cardinality is not None and len(self._suggested) >= cardinality:
            return None
        use_model = len(self._observations) >= self.n_startup_trials
        attempts = max(64, 8 * self.n_candidates)
        for _ in range(attempts):
            config = self._model_proposal() if use_model else self.space.sample(self._rng)
            if self.space.config_id(config) not in self._suggested:
                return config
        if cardinality is not None:
            # Finite space, random draws kept colliding: fall back to the
            # first unseen configuration in canonical enumeration order.
            for config in self.space.enumerate():
                if self.space.config_id(config) not in self._suggested:
                    return config
            return None
        # Continuous space: collisions this persistent mean the canonical
        # grid is effectively saturated around the model's mode; one last
        # uniform draw keeps the study moving.
        config = self.space.sample(self._rng)
        return None if self.space.config_id(config) in self._suggested else config

    def _model_proposal(self) -> dict:
        """One TPE-style proposal: perturb elites, keep the best ratio.

        The draws are scalar and in a fixed order (elite index, then one
        draw per axis, candidate by candidate) -- the seed's stream.  The
        scores are one array computation; ``argmax`` keeps the first of
        equal scores.
        """
        good = self._elite_split()[0]
        candidates = []
        for _ in range(self.n_candidates):
            base = good[int(self._rng.integers(len(good)))]
            candidates.append(self._perturb(base))
        scores = self._scores(candidates)
        return self.space.decode(candidates[int(np.argmax(scores))])

    def _perturb(self, base) -> tuple[float, ...]:
        random, normal, bandwidth = self._rng.random, self._rng.normal, self.bandwidth
        out = []
        for categorical, u in zip(self._categorical, base):
            if categorical:
                # Keep the elite's choice most of the time, else resample.
                out.append(u if random() < 0.75 else random())
            else:
                out.append(min(1.0, max(0.0, u + normal(0.0, bandwidth))))
        return tuple(out)

    def _elite_split(self):
        """``(good vectors, good tables, bad tables)`` of the observations.

        The elite ("good") split is the first ``gamma`` share in NSGA-II
        order; the rest is "bad" (or the good set again when nothing is
        left).  Observations only grow, so the split is recomputed only
        when a tell has changed their count and is shared by every retry
        in between.
        """
        n_observed = len(self._observations)
        if self._split is None or self._split[0] != n_observed:
            vectors = [vec for vec, _ in self._observations]
            order = pareto_rank_order([obj for _, obj in self._observations])
            n_good = max(1, math.ceil(self.gamma * n_observed))
            good = [vectors[i] for i in order[:n_good]]
            bad = [vectors[i] for i in order[n_good:]] or good
            self._split = (n_observed, good, self._tables(good), self._tables(bad))
        return self._split[1:]

    def _bins(self, values) -> np.ndarray:
        """Choice bin of every categorical row of ``values`` (axis x point).

        The bin :meth:`CategoricalDimension.decode` picks, numbered across
        axes.  Choices are unique, so equal bins mean equal choices.
        """
        index = np.clip(values[self._categorical_axes] * self._n_choices, 0.0, self._n_choices - 1)
        return index.astype(np.intp) + self._bin_offsets

    def _tables(self, sample):
        """``(numeric columns, log choice frequency per bin)`` of ``sample``.

        A categorical axis scores a candidate by the add-one-smoothed
        frequency of its choice in the sample, which depends on the choice
        alone: its log is taken once per bin here.
        """
        values = np.array(sample, dtype=float).T
        counts = np.bincount(self._bins(values).ravel(), minlength=len(self._bin_n_choices))
        frequencies = (counts + 1.0) / (len(sample) + self._bin_n_choices)
        return values[self._numeric_axes], np.array(list(map(math.log, frequencies.tolist())))

    def _scores(self, candidates) -> np.ndarray:
        """Log density ratio ``log l(x) - log g(x)`` of every candidate."""
        _, good, bad = self._elite_split()
        values = np.array(candidates, dtype=float).T
        numeric, bins = values[self._numeric_axes], self._bins(values)
        return self._log_densities(numeric, bins, good) - self._log_densities(numeric, bins, bad)

    def _log_densities(self, numeric, bins, tables) -> np.ndarray:
        """Log Parzen-window density of each candidate under one sample.

        Numeric axes use Gaussian kernels at :attr:`bandwidth`; categorical
        axes use the add-one-smoothed match frequency of the choice.  Axes
        are treated independently (the classic TPE factorization) and
        their log terms add up in axis order.  The kernels form one
        ``(axis, candidate, sample)`` array with the sample axis last and
        contiguous, so each mean sums in the same order as a 1-D mean over
        the sample, and ``math.log`` takes each density.
        """
        sample_numeric, log_frequencies = tables
        deviations = (sample_numeric[:, None, :] - numeric[:, :, None]) / self.bandwidth
        kernels = np.exp(-0.5 * deviations**2).mean(axis=-1) + 1e-12
        terms = np.empty((len(self._categorical), bins.shape[1]))
        for axis, row in zip(self._numeric_axes, kernels.tolist()):
            terms[axis] = list(map(math.log, row))
        terms[self._categorical_axes] = log_frequencies[bins]
        total = np.zeros(bins.shape[1])
        for row in terms:
            total += row
        return total
