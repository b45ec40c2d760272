"""Reference: the per-candidate, per-axis Parzen scorer of the TPE sampler.

Kept verbatim from the sampler before it scored candidates as arrays:
every proposal re-ranks every observation, re-decodes every categorical
column, and scores the candidates one at a time and one axis at a time.
:class:`ScalarTPESampler` plugs that proposal back into
:class:`~repro.search.optimizer.ParetoTPESampler`, so the same seed and the
same tells must give the same trial sequence and the same final Generator
state as the array scorer.  :meth:`ScalarTPESampler.scores` exposes the
per-candidate scores for the exact-equality test.
"""

from __future__ import annotations

import math

import numpy as np

from repro.search.optimizer import ParetoTPESampler, pareto_rank_order


class ScalarTPESampler(ParetoTPESampler):
    """:class:`ParetoTPESampler` with the scalar proposal loop."""

    def _model_proposal(self) -> dict:
        """One TPE-style proposal: perturb an elite, keep the best ratio."""
        vectors = [vec for vec, _ in self._observations]
        objectives = [obj for _, obj in self._observations]
        order = pareto_rank_order(objectives)
        n_good = max(1, math.ceil(self.gamma * len(order)))
        good = [vectors[i] for i in order[:n_good]]
        bad = [vectors[i] for i in order[n_good:]] or good
        best_vector = None
        best_score = -math.inf
        for _ in range(self.n_candidates):
            base = good[int(self._rng.integers(len(good)))]
            candidate = self._perturb(base)
            score = self._log_density(candidate, good) - self._log_density(
                candidate, bad
            )
            if score > best_score:
                best_score = score
                best_vector = candidate
        return self.space.decode(best_vector)

    def _log_density(self, vector, sample) -> float:
        """Log Parzen-window density of ``vector`` under ``sample``.

        Numeric axes use Gaussian kernels at :attr:`bandwidth`; categorical
        axes use the add-one-smoothed match frequency of the decoded
        choice.  Axes are treated independently (the classic TPE
        factorization).
        """
        total = 0.0
        for axis, value in enumerate(vector):
            column = [point[axis] for point in sample]
            if self._categorical[axis]:
                dim = self.space.dimensions[axis]
                choice = dim.decode(value)
                matches = sum(1 for u in column if dim.decode(u) == choice)
                total += math.log(
                    (matches + 1.0) / (len(column) + dim.n_choices)
                )
            else:
                deviations = (np.asarray(column) - value) / self.bandwidth
                kernels = np.exp(-0.5 * deviations**2)
                total += math.log(float(kernels.mean()) + 1e-12)
        return total

    def scores(self, candidates) -> list[float]:
        """Good-minus-bad log density of each candidate, the scalar way."""
        vectors = [vec for vec, _ in self._observations]
        objectives = [obj for _, obj in self._observations]
        order = pareto_rank_order(objectives)
        n_good = max(1, math.ceil(self.gamma * len(order)))
        good = [vectors[i] for i in order[:n_good]]
        bad = [vectors[i] for i in order[n_good:]] or good
        return [
            self._log_density(candidate, good) - self._log_density(candidate, bad)
            for candidate in candidates
        ]
