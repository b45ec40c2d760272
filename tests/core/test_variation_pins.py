"""Pinned Monte-Carlo outputs of the comparator-offset analysis.

:func:`~repro.core.variation.simulate_offset_variation` feeds the robustness
surface, the offset-aware Table II and every variation store entry, so a
change to how it translates trees, draws offsets or scores trials must leave
its numbers exactly as they were.  The digests below were recorded from the
per-trial implementation (one offset row drawn per trial, one
``accuracy_score`` per trial) on trained ``seeds`` and ``cardio`` trees; the
analyses must reproduce them bit for bit, in-process and as jobs of two worker
processes (the executor fan-out every variation work unit goes through).
"""

import hashlib

import numpy as np
import pytest

from repro.core.design import DesignSpec
from repro.core.executor import get_executor
from repro.core.variation import ComparatorOffsetModel, simulate_offset_variation
from repro.mltrees.cart import CARTTrainer

N_TRIALS = 100
SIGMAS = (0.0, 0.01, 0.04)
MC_SEEDS = (0, 1)
DEPTHS = (2, 4, 8)

#: ``(dataset, depth) -> nominal accuracy`` of the depth-8 tree cut at ``depth``.
PINNED_NOMINAL = {
    ("seeds", 2): 0.8888888888888888,
    ("seeds", 4): 0.8888888888888888,
    ("seeds", 8): 0.8412698412698413,
    ("cardio", 2): 0.8430141287284144,
    ("cardio", 4): 0.8854003139717426,
    ("cardio", 8): 0.9167974882260597,
}

#: ``(dataset, depth, sigma, seed) -> sha256`` of the float64 accuracies.
PINNED_ACCURACIES = {
    ("seeds", 2, 0.0, 0): "cf6f4bbf702b261584cb065dc54f3d03352d5efefd42b7d9c634bc549299c353",
    ("seeds", 2, 0.0, 1): "cf6f4bbf702b261584cb065dc54f3d03352d5efefd42b7d9c634bc549299c353",
    ("seeds", 2, 0.01, 0): "279d964901b2345bb69a4572f2b67d3ce9cdef7e152e927f3637584c09047bdb",
    ("seeds", 2, 0.01, 1): "1b78c370c8dbda171412cb4992754aecd1efd453d7b4ef9c29e35b57a7f8c89f",
    ("seeds", 2, 0.04, 0): "58a069a6ef753bdc12ec0a1ff1072c68d5be64bd1885c8cd47433ac50b0e7df8",
    ("seeds", 2, 0.04, 1): "bf8516dac09acdf097cac97b634520419bd797b140e6bc720cf540d06cc493ad",
    ("seeds", 4, 0.0, 0): "cf6f4bbf702b261584cb065dc54f3d03352d5efefd42b7d9c634bc549299c353",
    ("seeds", 4, 0.0, 1): "cf6f4bbf702b261584cb065dc54f3d03352d5efefd42b7d9c634bc549299c353",
    ("seeds", 4, 0.01, 0): "167aef370514dca82e44f81dde692a75621516479203e9959f4f34767733c201",
    ("seeds", 4, 0.01, 1): "c7fb7025b36ce342902713cc895c8fd80c4d64678bf264cb07662b33202499ff",
    ("seeds", 4, 0.04, 0): "2c89daeb78c9bb51c424a9d173594d927d3daf1457acd890f8f621842c2d82cf",
    ("seeds", 4, 0.04, 1): "9f9b8a390d3cb3b944eb0ce2556267369a8884615a3f73e87663847385d00147",
    ("seeds", 8, 0.0, 0): "aac6dbfab00c64413e3f9b1c975480ec88b576847af92d97f494893f609d04d0",
    ("seeds", 8, 0.0, 1): "aac6dbfab00c64413e3f9b1c975480ec88b576847af92d97f494893f609d04d0",
    ("seeds", 8, 0.01, 0): "95a78d1df6656bc8e52f6af2931c6fed99ea638a932aa6c0db133f905732a0be",
    ("seeds", 8, 0.01, 1): "552db60e36b08438602fbb9759355de3e8ce8348cf0f725a9571f6efd968a77f",
    ("seeds", 8, 0.04, 0): "fc824c048f47755220b748bff1bcc136a40e78c8316b85ae73b5f2b0a7549dc0",
    ("seeds", 8, 0.04, 1): "f9de117413a7a4aa0d378151404ffc37257acef600194af47b1fa152508aa6c9",
    ("cardio", 2, 0.0, 0): "c586fcf1c61314ea3c0436dc3a048e935c329dd713fd9f502af9ac47745d9106",
    ("cardio", 2, 0.0, 1): "c586fcf1c61314ea3c0436dc3a048e935c329dd713fd9f502af9ac47745d9106",
    ("cardio", 2, 0.01, 0): "3904a7d34638624cc65aa47b13e91c6fff543bdf65d6976ed892b76731391116",
    ("cardio", 2, 0.01, 1): "fae806bfd7101317cb3bd2ba562468882477f0f28c3f7890fd7fac64e9d0a48b",
    ("cardio", 2, 0.04, 0): "57e643c3b351356542248f467c3a16bc0e9afaf1f8f3dd3d743ce2da8cc2263c",
    ("cardio", 2, 0.04, 1): "3fe9b9c560f6bcda66243e415cd9785051cb74ee390cc4166800157a27b14991",
    ("cardio", 4, 0.0, 0): "319278a8d04b5adeb152c8914b3c04ea6a34cd134a0def1bc2297aa478b23102",
    ("cardio", 4, 0.0, 1): "319278a8d04b5adeb152c8914b3c04ea6a34cd134a0def1bc2297aa478b23102",
    ("cardio", 4, 0.01, 0): "b21e00e4935e3466dc4ca2cc2c96b78b00ced10d77be24a6c9fbf8298aab4e4f",
    ("cardio", 4, 0.01, 1): "e3a072adbfdc4eecaaac35edf064a1a726d474cf0a3f74f173abef7d84f3de42",
    ("cardio", 4, 0.04, 0): "842f1bd8e1862b1ac02ae555d0682ed5fc681d8122a7382301df008eacc4073e",
    ("cardio", 4, 0.04, 1): "cb3077b75cfad2b0f749dc33d24e346f5349d4f44da2702463aeaeb6e2a34b04",
    ("cardio", 8, 0.0, 0): "1cb76d9773a04c7121192bee6535ef46ed869fd9da20ac8c601d25df6feeb973",
    ("cardio", 8, 0.0, 1): "1cb76d9773a04c7121192bee6535ef46ed869fd9da20ac8c601d25df6feeb973",
    ("cardio", 8, 0.01, 0): "56d1417a9a07fe000f9a11c3c1a65a5ff33262c027c6db93428b2d09672bae92",
    ("cardio", 8, 0.01, 1): "ade43d99dc4cb84360323e1d11cf28e43504a90d9b26e0e93e42d7c4f5af09e7",
    ("cardio", 8, 0.04, 0): "b1051be758002666df898c730a1fe9f4046b0288da13cb91b909aa3e534c47c1",
    ("cardio", 8, 0.04, 1): "2ae7a5a18f85baa0762aa2a07fdcf3e834163020212b573baa2c6b4d02c848b3",
}


def _digest(accuracies) -> str:
    return hashlib.sha256(np.asarray(accuracies, dtype=np.float64).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def cases():
    """``(dataset, depth) -> (tree, X_test, y_test)``: the grid's depth cuts."""
    out = {}
    for dataset in ("seeds", "cardio"):
        spec = DesignSpec(dataset, seed=0, depth=max(DEPTHS), tau=0.01)
        data = spec.data()
        tree = spec.train()
        for depth in DEPTHS:
            out[dataset, depth] = tree.truncated(depth), data.X_test, data.y_test
    return out


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("dataset", ["seeds", "cardio"])
@pytest.mark.parametrize("depth", DEPTHS)
def test_accuracies_are_pinned(cases, dataset, depth, jobs):
    tree, X, y = cases[dataset, depth]
    grid = [(sigma, seed) for sigma in SIGMAS for seed in MC_SEEDS]
    with get_executor(jobs) as executor:
        analyses = executor.map(
            simulate_offset_variation,
            [(tree, X, y, sigma, N_TRIALS, None, seed) for sigma, seed in grid],
        )
    for (sigma, seed), analysis in zip(grid, analyses):
        assert analysis.nominal_accuracy == PINNED_NOMINAL[dataset, depth]
        assert _digest(analysis.accuracies) == PINNED_ACCURACIES[
            dataset, depth, sigma, seed
        ], (dataset, depth, sigma, seed)


def test_single_leaf_tree_scores_its_nominal_accuracy_every_trial():
    X_levels = np.array([[3, 4], [5, 6], [2, 1], [7, 7]])
    tree = CARTTrainer(max_depth=2).fit(X_levels, np.ones(4, dtype=np.int64), n_classes=2)
    assert tree.n_nodes == 1
    y = np.array([1, 1, 0, 1])
    analysis = simulate_offset_variation(tree, X_levels / 16.0, y, 0.04, n_trials=7)
    assert analysis.nominal_accuracy == 0.75
    assert analysis.accuracies == (0.75,) * 7
    assert (analysis.mean_accuracy, analysis.std_accuracy, analysis.min_accuracy) == (
        0.75, 0.0, 0.75,
    )


@pytest.mark.parametrize("sigma_v, mean_v", [(0.02, 0.0), (0.05, 0.003), (0.0, 0.002)])
@pytest.mark.parametrize("n_trials, size", [(1, 1), (3, 17), (100, 40), (7, 0)])
def test_sample_matrix_draws_like_successive_samples(sigma_v, mean_v, n_trials, size):
    model = ComparatorOffsetModel(sigma_v=sigma_v, mean_v=mean_v)
    matrix_rng, row_rng = np.random.default_rng(11), np.random.default_rng(11)
    matrix = model.sample_matrix(matrix_rng, n_trials, size)
    rows = np.stack([model.sample(row_rng, size) for _ in range(n_trials)])
    assert matrix.shape == (n_trials, size)
    np.testing.assert_array_equal(matrix, rows)
    assert matrix_rng.bit_generator.state == row_rng.bit_generator.state
