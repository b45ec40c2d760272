"""Pinned pickle bytes of trained trees, one design point and reference entries.

Store entries and registry artifacts are pickles, so a change to how a
:class:`~repro.mltrees.tree.DecisionTree` is built -- its attribute order,
its node table, the dtype that table narrows to -- changes every entry's
bytes even when the tree is the same.  These digests were recorded from the
trees as they were before the grower wrote node rows directly; any
refactor of tree construction must leave them unchanged.  The ``suite``
unit digests -- a benchmark's reference designs, the store entry of
:func:`~repro.core.sharding.suite_work_unit` -- were recorded while the
reference designs were still built by an in-memory framework class that
split and quantized the benchmark a second time; building them on the
spec's split must leave them unchanged.

The bytes include numpy's array reduction (its module path moved in numpy
2), so the pins hold for numpy 2.x only.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.analysis.experiments import _compute_job
from repro.core.design import DesignSpec
from repro.core.sharding import suite_work_unit
from repro.mltrees.cart import CARTTrainer

pytestmark = pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2,
    reason="pickled arrays name numpy 2's module path",
)

#: sha256 of ``pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)``.
PINNED = {
    ("seeds", "adc_aware_depth8"): (
        "9754a86dfa4c9b9b16cd0ac29cefe76493888486d9ffb1e55c2c94726b8eb485"
    ),
    ("seeds", "adc_aware_depth8_cut4"): (
        "b8cb41fb5a480ca386e2a73d48dbf1176b667d5ebc1c479f8ed983eee2cdc097"
    ),
    ("seeds", "cart_depth8"): (
        "a1d7f2a964e1948bd0a2a372ac19ea9ffc481d1f4f4ca2270711ce9d01996dc4"
    ),
    ("cardio", "adc_aware_depth8"): (
        "90c2232e961917a34821bbcceffe2a52d166fec8a3d1b07df0cabca967f7aff1"
    ),
    ("cardio", "adc_aware_depth8_cut4"): (
        "816f9a23468ab5fc191fc1d54e50798b289407e5106beb12c7c833a8de7aaede"
    ),
    ("cardio", "cart_depth8"): (
        "c61f73b3af41ad1ca5a6dbcc50588cf64d20e62857f7d9291d227a3b524a7988"
    ),
    ("seeds", "design_point_depth4"): (
        "1cffcb41c8f7289a056efc428e66eeffcd37dbd63ac843e359c03042700d7d00"
    ),
    ("seeds", "suite_table1"): (
        "5bc3d145562b247ae1d76b00ea5668a6360dbbfb2a41355deec4d591d3b0404c"
    ),
    ("seeds", "suite_table2"): (
        "4882379fe6cfa12465dc1130a0b235d55a885c3b407ee8745879b26bb8dde75e"
    ),
    ("cardio", "suite_table1"): (
        "e9b2da582f49267c65fe2fa857c7747f675a492379728efdaf6aae55e647b79d"
    ),
    ("cardio", "suite_table2"): (
        "21d066d0a2bf5ffd5247fe17d03d5a43a35184b7d9a09f9d1f8fc6ebd4bf9c94"
    ),
}


def _digest(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()


def _pinned_objects(dataset: str) -> dict:
    spec = DesignSpec(dataset, seed=0, depth=8, tau=0.01)
    data = spec.data()
    deep = spec.train()
    cart = CARTTrainer(max_depth=8, seed=0).fit(
        data.X_train_levels, data.y_train, data.n_classes
    )
    return {
        "adc_aware_depth8": deep,
        "adc_aware_depth8_cut4": deep.truncated(4),
        "cart_depth8": cart,
    }


@pytest.mark.parametrize("dataset", ["seeds", "cardio"])
def test_tree_pickles_are_pinned(dataset):
    objects = _pinned_objects(dataset)
    assert {name: _digest(obj) for name, obj in objects.items()} == {
        name: PINNED[dataset, name] for name in objects
    }


def test_design_point_pickle_is_pinned():
    point = DesignSpec("seeds", seed=0, depth=4, tau=0.01).evaluate()
    assert _digest(point) == PINNED["seeds", "design_point_depth4"]


@pytest.mark.parametrize("dataset", ["seeds", "cardio"])
@pytest.mark.parametrize("include_approximate_baseline", [False, True])
def test_suite_unit_pickles_are_pinned(dataset, include_approximate_baseline):
    unit = suite_work_unit(dataset, 0, include_approximate_baseline)
    (reference,) = _compute_job([unit])
    variant = "suite_table2" if include_approximate_baseline else "suite_table1"
    assert _digest(reference) == PINNED[dataset, variant]
