"""Pinned pickle bytes and content of trained trees, one design point and reference entries.

Store entries and registry artifacts are pickles, so a change to how a
:class:`~repro.mltrees.tree.DecisionTree` is built -- its attribute order,
its node table, the dtype that table narrows to -- changes every entry's
bytes even when the tree is the same.  The ``suite`` unit digests -- a
benchmark's reference designs, the store entry of
:func:`~repro.core.sharding.suite_work_unit` -- were recorded while the
reference designs were still built by an in-memory framework class that
split and quantized the benchmark a second time; building them on the
spec's split must leave them unchanged.

The tree and design-point byte pins were re-recorded once, when store
schema 4 made a tree pickle its node table as a plain ``(dtype.str, shape,
bytes)`` triple instead of a numpy array.  :data:`CONTENT_PINNED` holds
the :meth:`~repro.mltrees.tree.DecisionTree.digest` of the same trees,
recorded before that change and unchanged by it: the trees are the same,
only their pickles differ.
"""

import hashlib
import pickle

import pytest

from repro.analysis.experiments import _compute_job
from repro.core.design import DesignSpec
from repro.core.sharding import suite_work_unit
from repro.mltrees.cart import CARTTrainer

#: sha256 of ``pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)``.
PINNED = {
    ("seeds", "adc_aware_depth8"): (
        "d9f708190ca663696622221b33097f0d420761ea11b15c143007892980f1f6c9"
    ),
    ("seeds", "adc_aware_depth8_cut4"): (
        "264cdae0c2bcac33ebb251ad6c778be219e84c21b8c3e581c53e04288c10b215"
    ),
    ("seeds", "cart_depth8"): (
        "9d515bb30795d7e16003f2e319bf8b47f30de83969c8cb96e84541b7e4643726"
    ),
    ("cardio", "adc_aware_depth8"): (
        "cad5a76f326b5256e073fe7d857101bb7c9431c5ba583eb4e74d2913319844ce"
    ),
    ("cardio", "adc_aware_depth8_cut4"): (
        "8abeaabd6245f95ae4fd6002c28801a63e8e781a10300060bfe2e92eacc012c4"
    ),
    ("cardio", "cart_depth8"): (
        "e80a74db65a47b54b7af25617eb836de633502f7088379ac191586a619f5dd6e"
    ),
    ("seeds", "design_point_depth4"): (
        "8452d6ed66d6bdb709e2e168ec9e7592a71034aee67d8a8e90ee103586cc44dc"
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

#: ``DecisionTree.digest()`` of each pinned tree, and of the design point's tree.
CONTENT_PINNED = {
    ("seeds", "adc_aware_depth8"): (
        "2dac4e05c6d12025c6fab0e7e43267fd059602e1873a0e0b5a61897a68603fdb"
    ),
    ("seeds", "adc_aware_depth8_cut4"): (
        "2a6039e4bd158ab3eb36a981fcce2ba5646c11efb9b6e7e73c8b37bfd45d2d36"
    ),
    ("seeds", "cart_depth8"): (
        "8baa84fd5be00026464eacbe94691bb68c1aa0f26d118e86c17a153816c1dfc3"
    ),
    ("cardio", "adc_aware_depth8"): (
        "f35a2ca316b57acc54ac973fcf1fec2d4036230a397a56798212fced04620c3e"
    ),
    ("cardio", "adc_aware_depth8_cut4"): (
        "1588e730fa9d7465bba2e0a4902a2c3feb9456de94fd39b56a47b31f0ee67fbf"
    ),
    ("cardio", "cart_depth8"): (
        "7bc00249557ebe72ccdb3ed091f5defb97fc4663039cfc0d8e76ca269a577291"
    ),
    # The depth-4 point at tau 0.01 holds the depth-8 tree cut at 4.
    ("seeds", "design_point_depth4"): (
        "2a6039e4bd158ab3eb36a981fcce2ba5646c11efb9b6e7e73c8b37bfd45d2d36"
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


@pytest.fixture(scope="module", params=["seeds", "cardio"])
def pinned_trees(request):
    return request.param, _pinned_objects(request.param)


@pytest.fixture(scope="module")
def design_point():
    return DesignSpec("seeds", seed=0, depth=4, tau=0.01).evaluate()


def test_tree_pickles_are_pinned(pinned_trees):
    dataset, objects = pinned_trees
    assert {name: _digest(obj) for name, obj in objects.items()} == {
        name: PINNED[dataset, name] for name in objects
    }


def test_tree_contents_are_pinned(pinned_trees):
    dataset, objects = pinned_trees
    assert {name: tree.digest() for name, tree in objects.items()} == {
        name: CONTENT_PINNED[dataset, name] for name in objects
    }


def test_design_point_pickle_is_pinned(design_point):
    assert _digest(design_point) == PINNED["seeds", "design_point_depth4"]


def test_design_point_content_is_pinned(design_point):
    assert design_point.tree.digest() == CONTENT_PINNED["seeds", "design_point_depth4"]


@pytest.mark.parametrize("dataset", ["seeds", "cardio"])
@pytest.mark.parametrize("include_approximate_baseline", [False, True])
def test_suite_unit_pickles_are_pinned(dataset, include_approximate_baseline):
    unit = suite_work_unit(dataset, 0, include_approximate_baseline)
    (reference,) = _compute_job([unit])
    variant = "suite_table2" if include_approximate_baseline else "suite_table1"
    assert _digest(reference) == PINNED[dataset, variant]
