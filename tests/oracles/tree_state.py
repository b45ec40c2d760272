"""The schema-3 pickle state of a tree, the reference of the packed node table.

Until store schema 4, :meth:`~repro.mltrees.tree.DecisionTree.__getstate__`
stored the narrowed node table as a numpy array, so unpickling any tree
imported numpy.  Schema 4 stores the same table as the plain triple
``(dtype.str, shape, bytes)``.  This module keeps the schema-3 state
verbatim (:func:`schema3_nodes`) and pickles objects whose trees carry a
node state this code refuses (:func:`pickle_malformed`): the store, the
registry and the CLI are tested against those pickles.
"""

from __future__ import annotations

import pickle
from unittest.mock import patch

import numpy as np

from repro.mltrees.tree import _TABLE_COLUMNS, DecisionTree

#: Node states :meth:`DecisionTree.__setstate__` must refuse, by test id.
MALFORMED_CASES = ("wrong-byte-length", "float-dtype", "schema3-ndarray")


def schema3_nodes(tree: DecisionTree) -> np.ndarray:
    """The ``nodes`` state a schema-3 tree pickled: the narrowed table as an array."""
    table = np.column_stack(
        [*(getattr(tree, name) for name in _TABLE_COLUMNS), tree.class_counts]
    )
    return table.astype(np.min_scalar_type(-1 - int(table.max())))


def pickle_malformed(obj, case: str) -> bytes:
    """``obj`` pickled with the node state of every tree in it malformed as ``case``."""
    getstate = DecisionTree.__getstate__

    def malformed(tree: DecisionTree) -> dict:
        state = getstate(tree)
        dtype, shape, data = state["nodes"]
        if case == "wrong-byte-length":
            state["nodes"] = (dtype, shape, data[:-1])
        elif case == "float-dtype":
            table = np.frombuffer(data, dtype=dtype).astype("<f8")
            state["nodes"] = ("<f8", shape, table.tobytes())
        elif case == "schema3-ndarray":
            state["nodes"] = schema3_nodes(tree)
        else:
            raise ValueError(f"unknown case {case!r}")
        return state

    with patch.object(DecisionTree, "__getstate__", malformed):
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
