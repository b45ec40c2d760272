"""Unit tests for the NSGA-II primitives and the Pareto-TPE sampler."""

import hashlib
import json
import math

import numpy as np
import pytest

from oracles.tpe_scalar import ScalarTPESampler

from repro.search.optimizer import (
    ParetoTPESampler,
    crowding_distance,
    hypervolume,
    non_dominated_sort,
    pareto_rank_order,
)
from repro.search.space import (
    CategoricalDimension,
    FloatDimension,
    IntDimension,
    SearchSpace,
    paper_space,
    wide_space,
)


def tiny_space() -> SearchSpace:
    """A 12-configuration space the sampler can exhaust within a test."""
    return SearchSpace(
        (
            IntDimension("depth", 2, 4),
            FloatDimension("tau", 0.0, 0.01, step=0.01),
            CategoricalDimension("bits", (4, 5)),
        )
    )


class TestNonDominatedSort:
    def test_peels_three_staircase_fronts(self):
        points = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 1.0), (1.0, 0.0)]
        assert non_dominated_sort(points) == [[0], [3, 4], [1], [2]]

    def test_all_tradeoffs_form_one_front(self):
        points = [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]
        assert non_dominated_sort(points) == [[0, 1, 2]]

    def test_empty_input(self):
        assert non_dominated_sort([]) == []


class TestCrowdingDistance:
    def test_boundaries_infinite_interior_normalized(self):
        distances = crowding_distance([(0.0, 4.0), (1.0, 2.0), (4.0, 0.0)])
        assert distances[0] == math.inf
        assert distances[2] == math.inf
        # interior point: its neighbors span the whole range on both axes,
        # so each normalized side length is 1.
        assert distances[1] == pytest.approx(2.0)

    def test_degenerate_identical_points(self):
        # Stable sort makes the first and last input the boundary points;
        # the zero span leaves the interior duplicate at distance 0.
        distances = crowding_distance([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)])
        assert distances == [math.inf, 0.0, math.inf]

    def test_empty_front(self):
        assert crowding_distance([]) == []


class TestHypervolume:
    def test_exact_two_dimensional_staircase(self):
        points = [(1.0, 2.0), (2.0, 1.0)]
        # (3-1)*(3-2) + (3-2)*(3-1) = 2 + 2, minus double-counted (2,2)
        # corner box 1x1 -> the sweep yields exactly 3.
        assert hypervolume(points, (3.0, 3.0)) == pytest.approx(3.0)

    def test_exact_three_dimensional_unit_cube(self):
        assert hypervolume([(0.0, 0.0, 0.0)], (1.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_points_at_or_beyond_the_reference_contribute_nothing(self):
        assert hypervolume([(3.0, 0.0), (0.0, 3.0)], (3.0, 3.0)) == 0.0
        assert hypervolume([], (3.0, 3.0)) == 0.0

    def test_duplicates_do_not_double_count(self):
        single = hypervolume([(1.0, 1.0)], (3.0, 3.0))
        assert hypervolume([(1.0, 1.0), (1.0, 1.0)], (3.0, 3.0)) == single

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="objectives"):
            hypervolume([(1.0, 1.0, 1.0)], (3.0, 3.0))


class TestParetoRankOrder:
    def test_front_rank_dominates_crowding(self):
        points = [(2.0, 2.0), (0.0, 1.0), (1.0, 0.0)]
        order = pareto_rank_order(points)
        assert set(order[:2]) == {1, 2}
        assert order[2] == 0

    def test_deterministic_on_ties(self):
        points = [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]
        assert pareto_rank_order(points) == pareto_rank_order(points)


class TestParetoTPESampler:
    def test_same_seed_same_trajectory(self):
        def run():
            sampler = ParetoTPESampler(tiny_space(), seed=7, n_startup_trials=2)
            history = []
            for objectives in [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (0.2, 0.8)]:
                batch = sampler.ask(1)
                history.append(batch)
                sampler.tell(batch[0], objectives)
            return history

        assert run() == run()

    def test_never_suggests_a_configuration_twice(self):
        space = tiny_space()
        sampler = ParetoTPESampler(space, seed=0, n_startup_trials=2)
        seen = set()
        for round_number in range(12):
            for config in sampler.ask(1):
                config_id = space.config_id(config)
                assert config_id not in seen
                seen.add(config_id)
                sampler.tell(config, (float(round_number), -float(round_number)))

    def test_exhausts_a_finite_space_then_returns_empty(self):
        space = tiny_space()
        sampler = ParetoTPESampler(space, seed=3, n_startup_trials=2)
        suggested = sampler.ask(space.cardinality + 5)
        assert len(suggested) == space.cardinality
        ids = {space.config_id(c) for c in suggested}
        assert len(ids) == space.cardinality
        assert sampler.ask(1) == []

    def test_model_proposals_stay_on_the_canonical_grid(self):
        space = tiny_space()
        sampler = ParetoTPESampler(space, seed=1, n_startup_trials=2)
        valid = {space.config_id(c) for c in space.enumerate()}
        for objectives in [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)]:
            [config] = sampler.ask(1)
            sampler.tell(config, objectives)
        # Startup is over: these asks go through the TPE model.
        assert sampler.n_observed == 3
        for config in sampler.ask(4):
            assert space.config_id(config) in valid

    def test_tell_accepts_untold_external_trials(self):
        # Warm-starting: a study may tell results the sampler never asked.
        space = tiny_space()
        sampler = ParetoTPESampler(space, seed=0)
        config = {"depth": 2, "tau": 0.0, "bits": 4}
        sampler.tell(config, (0.5, 0.5))
        assert sampler.n_observed == 1
        # The told configuration is also deduped out of later asks.
        ids = {space.config_id(c) for c in sampler.ask(space.cardinality)}
        assert space.config_id(config) not in ids

    def test_told_spelling_dedups_every_other_spelling(self):
        # An int spelling of paper_space's float choices (and a float
        # spelling of its int one) names the same trial: it is never
        # suggested again, and every other configuration is, exactly once.
        space = paper_space()
        told = {"depth": 5, "tau": 0.015, "resolution_bits": 4.0,
                "technology": "default", "training_sigma": 0, "robustness_weight": 1}
        sampler = ParetoTPESampler(space, seed=0)
        sampler.tell(told, (0.5, 0.5))
        ids = [space.config_id(c) for c in sampler.ask(space.cardinality)]
        everything = {space.config_id(c) for c in space.enumerate()}
        assert len(ids) == len(set(ids)) == space.cardinality - 1
        assert set(ids) == everything - {space.config_id(told)}

    def test_ask_zero_and_negative(self):
        sampler = ParetoTPESampler(tiny_space(), seed=0)
        assert sampler.ask(0) == []
        with pytest.raises(ValueError):
            sampler.ask(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_startup_trials": 0},
            {"n_candidates": 0},
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"bandwidth": 0.0},
        ],
    )
    def test_invalid_hyperparameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ParetoTPESampler(tiny_space(), seed=0, **kwargs)


def _synthetic_objectives(space, config) -> tuple[float, float]:
    """A deterministic two-objective trade-off over the encoded config.

    Only additions and multiplications, so every platform computes the
    same bits; the quadratic bumps put dominated points behind the front.
    """
    u = space.encode(config)
    n = len(u)
    first = sum((k + 1) * x for k, x in enumerate(u)) + (u[0] - 0.4) ** 2
    second = sum((n - k) * (1.0 - x) ** 2 for k, x in enumerate(u))
    return first, second + 2.0 * (u[1] - 0.6) ** 2


def _pinned_run(space, seed: int, n_trials: int | None):
    """Ask in batches of 4 and tell synthetic objectives; digest the run.

    Returns the sha256 of the newline-joined config-id sequence and of the
    final Generator state (sorted-key JSON).  ``n_trials=None`` runs until
    a finite space is exhausted.
    """
    sampler = ParetoTPESampler(space, seed=seed)
    ids: list[str] = []
    while n_trials is None or len(ids) < n_trials:
        batch = sampler.ask(4)
        if not batch:
            break
        for config in batch:
            ids.append(space.config_id(config))
            sampler.tell(config, _synthetic_objectives(space, config))
    state = json.dumps(sampler._rng.bit_generator.state, sort_keys=True)
    return (
        hashlib.sha256("\n".join(ids).encode()).hexdigest(),
        hashlib.sha256(state.encode()).hexdigest(),
    )


#: (space, seed, trials, sha256 of the config-id sequence, sha256 of the
#: final Generator state), recorded from the scalar per-candidate scorer
#: (``tests/oracles/tpe_scalar.py``) before candidates were scored as
#: arrays.  The wide runs end with 39 points in the bad split, past the
#: 8-element block where numpy's pairwise summation starts.
PINNED_RUNS = [
    (
        "paper", 0, 40,
        "2507f0c18cb3a36cff2b6a69c0e77e44256523a16bb6a06f812ff7e0120ecd5d",
        "ca9a5c513679279be245e59f36c3145b450372f5857faf773186e60d06842c63",
    ),
    (
        "paper", 1, 40,
        "d7ae3fca7ef60e8cbfa79df3a81b4c1d0a87234509bf87f19a0c96e0a1482a03",
        "8a3566d44e264f45d1dd9cb17103bbafb6b8fdd6280eae4957fbc6963ec44e35",
    ),
    (
        "paper", 2, 40,
        "753ffec7b5d8489b031a6553aa3b86ce9e356f245b7d064469472c707dac110c",
        "9d06ac76cf882d2d5fec788697b71c6492819545a7d95ed690068b1cd8b6513f",
    ),
    (
        "paper", 3, 40,
        "398624a3edaf4cda8b1671fe32e33db498c4e21c763e0733bd946f8bba9a25a4",
        "dfdb8b32e2abd1fd1a942ca47cb3a767a9b1740d45cb2706a4d4e7afde392ba9",
    ),
    (
        "wide", 0, 60,
        "16b664b17b945abe65f305a67f0c9d1a1e481fcf8bdcbc67f4f3747778d502a2",
        "34a898fa05425ccbab7d6faa8476de219ffa1c198313e97ac28e9d28c08f1672",
    ),
    (
        "wide", 1, 60,
        "2be50b5298b974ffc34a5a10245b82542ddcf356193f3f2354fde0db0f64b946",
        "2be9a3ebd4e9a2b1bb4a8c358d0777650f64edcc09b892643e7ff5267b546f11",
    ),
    (
        "wide", 2, 60,
        "84876fc47aebcedad8a6e934883c356b53bd4a008ec6640048efd0aba353b017",
        "a33081b19dccd209b35485a7fbac1f4588886f7fefdfb4916026edf85978fd83",
    ),
    (
        "tiny", 0, None,
        "825822f584af20cac37eaec2ef71c59a4dabbe9529a9df5b8f60ec98b7088fad",
        "7dc78180dfb3e9e32d55058d4c1e0cfd39273d0e14b8fd64b7fd8e0cbe8d1ed9",
    ),
]

_SPACES = {"paper": paper_space, "wide": wide_space, "tiny": tiny_space}


@pytest.mark.parametrize(
    "space_name, seed, n_trials, ids_sha, state_sha",
    PINNED_RUNS,
    ids=[f"{name}-seed{seed}" for name, seed, *_ in PINNED_RUNS],
)
def test_trial_sequence_and_rng_state_are_pinned(
    space_name, seed, n_trials, ids_sha, state_sha
):
    assert _pinned_run(_SPACES[space_name](), seed, n_trials) == (ids_sha, state_sha)


def continuous_space() -> SearchSpace:
    """Mixed space with a continuous and a log-scaled float axis."""
    return SearchSpace(
        (
            IntDimension("depth", 2, 8),
            FloatDimension("x", 0.0, 1.0),
            CategoricalDimension("bits", (3, 4, 5)),
            FloatDimension("rate", 1e-3, 1.0, log=True),
        )
    )


def numeric_space() -> SearchSpace:
    """Numeric axes only: there is no categorical bin."""
    return SearchSpace(
        (
            IntDimension("depth", 2, 8),
            FloatDimension("rate", 1e-3, 1.0, log=True),
        )
    )


def categorical_space() -> SearchSpace:
    """Categorical axes only: the numeric kernel array is empty."""
    return SearchSpace(
        (
            CategoricalDimension("bits", (3, 4, 5)),
            CategoricalDimension("technology", ("default", "fast")),
        )
    )


class TestScalarOracleEquivalence:
    """The array scorer against the verbatim scalar one (tests/oracles)."""

    SPACES = {
        "paper": paper_space,
        "wide": wide_space,
        "continuous": continuous_space,
        "categorical": categorical_space,
        "numeric": numeric_space,
    }

    @staticmethod
    def _told(sampler_type, space, n_observations=30):
        """A sampler told ``n_observations`` fixed uniform trials."""
        sampler = sampler_type(space, seed=11)
        rng = np.random.default_rng(5)
        for _ in range(n_observations):
            config = space.sample(rng)
            sampler.tell(config, _synthetic_objectives(space, config))
        return sampler

    @staticmethod
    def _candidates(space, sampler):
        """Uniform draws, the unit cube's edges and the observations."""
        rng = np.random.default_rng(23)
        candidates = [tuple(rng.random(len(space))) for _ in range(200)]
        candidates += [(0.0,) * len(space), (1.0,) * len(space)]
        candidates += [vector for vector, _ in sampler._observations[:6]]
        return candidates

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_scores_equal_the_scalar_oracle_exactly(self, name):
        space = self.SPACES[name]()
        sampler = self._told(ParetoTPESampler, space)
        oracle = self._told(ScalarTPESampler, space)
        candidates = self._candidates(space, sampler)
        # 30 observations: 11 good, 19 bad -- past numpy's 8-element
        # pairwise-summation block on both sides.
        assert sampler._scores(candidates).tolist() == oracle.scores(candidates)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_trial_sequence_and_rng_state_match_the_oracle(self, name):
        space = self.SPACES[name]()
        runs = []
        for sampler_type in (ParetoTPESampler, ScalarTPESampler):
            sampler = sampler_type(space, seed=4)
            ids = []
            for _ in range(3):
                for config in sampler.ask(4):
                    ids.append(space.config_id(config))
                    sampler.tell(config, _synthetic_objectives(space, config))
            runs.append((ids, sampler._rng.bit_generator.state))
        assert runs[0] == runs[1]
