"""Columnar enumeration of candidate splits on quantized features.

Both the conventional CART trainer and the ADC-aware trainer (Algorithm 1 of
the paper) need, at every node, the Gini score of **every** candidate
``(feature, threshold)`` pair -- the ADC-aware variant because it builds the
tolerance set ``S = {(Ii, C) | Gini(Ii, C) <= G + tau}`` from them.

Because the inputs are quantized to ``2**resolution_bits`` levels, each
feature has at most ``2**resolution_bits - 1`` distinct thresholds, so the
candidate sets of a whole batch of nodes come from one ``(node, feature,
level, class)`` histogram -- a single ``bincount`` -- and one cumulative
sum (:func:`split_node_batch`), with the Gini score computed only on the
valid rows: no per-feature Python loop and no per-candidate object.  The
ADC-aware trainer enumerates each tree level in one batch; CART, which
grows depth-first, enumerates one node at a time through
:func:`enumerate_split_candidates`, the kernel on a batch of one that
returns a :class:`CandidateTable`.

Offset-aware training reuses the same histogram pass: with a
``flip_sigma``, the kernel also fills ``expected_flips`` -- the expected
fraction of the node's samples whose comparator digit flips under a
Gaussian input offset of ``flip_sigma`` (a fraction of full scale), one
matrix product of the level histogram with :func:`level_flip_matrix`.
Trainers fold it into the split score (``robustness_weight``); without it
the column is ``None`` and the enumeration is the nominal one.

CART trees trained on one training set share most of their nodes:
baseline [2]'s depth sweep refits CART at depths 1..8 and baseline [7]
refits it from the reference depth up.  Inside a
:func:`shared_split_tables` scope each CART node's table is therefore
computed once and shared.  The memo's key is the digest of the training
set (taken once per fit by :func:`bind_training_set`), the digest of the
node's int64 index bytes, ``min_samples_leaf`` and ``flip_sigma``.  Shared
tables are read-only.  The memo is cleared when a fit binds another
training set and when the outermost scope exits, it holds at most
:data:`SHARED_TABLES_MAX_ENTRIES` tables (least recently used first out),
and it is per thread and empty in a forked child.  Enumeration is
deterministic, so trees and RNG draws do not depend on the scope.

The pre-columnar object-building enumeration is retained verbatim in
``tests/oracles/legacy_split_search.py`` as the oracle for the equivalence
tests and the training-throughput benchmark, together with the object-list
helpers (table <-> list conversion, row selection, ``best_gini`` of a list)
that only the oracles and the tests use.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

_erf = np.vectorize(math.erf, otypes=[float])


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF, vectorized over ``math.erf`` (stdlib only).

    Shared by the training-side flip penalty below and the analytic
    comparator flip-probability model in :mod:`repro.core.variation`, so the
    two always agree on the underlying Gaussian math.  Deliberately *not*
    delegated to scipy when it happens to be installed: trained trees and
    their content-addressed cache entries must be bit-identical across
    environments, and the cache keys record nothing about a CDF backend.
    ``math.erf`` is correctly rounded, so the only cost is that the CDF
    underflows to exactly 0 past ~8.3 sigma -- flip probabilities far below
    anything the penalty or a Monte-Carlo trial could resolve.
    """
    x = np.asarray(x, dtype=float)
    return 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))


@lru_cache(maxsize=64)
def level_flip_matrix(n_levels: int, sigma: float) -> np.ndarray:
    """``(n_levels, n_levels - 1)`` analytic digit-flip probabilities.

    Entry ``[level, k - 1]`` is the probability that the comparator at
    threshold ``k`` (fires when the analog input exceeds ``k / n_levels``)
    produces the wrong digit for a sample quantized to ``level``, under a
    Gaussian input offset with standard deviation ``sigma`` (normalized to
    full scale).  A sample at ``level`` represents analog values in
    ``[level / n_levels, (level + 1) / n_levels)``, so its margin to the
    threshold is taken at the cell center ``(level + 0.5) / n_levels`` --
    the digit flips when the offset exceeds that margin, which happens with
    probability ``Phi(-|margin| / sigma)``.

    The matrix depends only on ``(n_levels, sigma)`` -- not on the node or
    the feature -- so it is computed once per training run and shared by
    every node's expected-flip column (cached; returned read-only).
    """
    if n_levels < 2:
        raise ValueError("need at least two quantization levels")
    if sigma < 0:
        raise ValueError("flip sigma must be >= 0")
    levels = np.arange(n_levels, dtype=float)
    thresholds = np.arange(1, n_levels, dtype=float)
    margins = (levels[:, np.newaxis] + 0.5 - thresholds[np.newaxis, :]) / n_levels
    if sigma == 0.0:
        probabilities = np.zeros_like(margins)
    else:
        probabilities = normal_cdf(-np.abs(margins) / sigma)
    probabilities.setflags(write=False)
    return probabilities


@dataclass(frozen=True)
class SplitCandidate:
    """One candidate split and its quality.

    Splitting sends samples with ``x[feature] >= threshold_level`` to the
    right child and the rest to the left child.
    """

    feature: int
    threshold_level: int
    gini: float
    n_left: int
    n_right: int


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Columnar table of candidate splits: one row per (feature, threshold).

    Rows are ordered by ``(feature, threshold_level)`` exactly like the
    historical candidate lists.  The parallel arrays let trainers score and
    filter every candidate with ndarray reductions; :meth:`candidate`
    materializes the one row a trainer selects as a :class:`SplitCandidate`.
    ``len`` counts rows and an empty table is falsy.

    The robustness column ``expected_flips`` is ``None`` unless the
    enumeration was asked for it (``flip_sigma``), and table equality
    intentionally compares only the five nominal columns, so offset-aware
    tables still equal their nominal counterparts when the split geometry
    is identical.
    """

    feature: np.ndarray          #: int64, feature index per candidate
    threshold_level: np.ndarray  #: int64, threshold level per candidate
    gini: np.ndarray             #: float64, weighted Gini of the split
    n_left: np.ndarray           #: int64, samples sent to the left child
    n_right: np.ndarray          #: int64, samples sent to the right child
    #: float64 or None: expected fraction of node samples whose digit flips
    #: under a Gaussian offset of the requested sigma
    expected_flips: np.ndarray | None = field(default=None)

    @classmethod
    def empty(cls) -> "CandidateTable":
        """A table with zero candidates."""
        zero_i = np.empty(0, dtype=np.int64)
        return cls(
            feature=zero_i,
            threshold_level=zero_i,
            gini=np.empty(0, dtype=np.float64),
            n_left=zero_i,
            n_right=zero_i,
        )

    def candidate(self, index: int) -> SplitCandidate:
        """Materialize row ``index`` as a :class:`SplitCandidate`."""
        return SplitCandidate(
            feature=int(self.feature[index]),
            threshold_level=int(self.threshold_level[index]),
            gini=float(self.gini[index]),
            n_left=int(self.n_left[index]),
            n_right=int(self.n_right[index]),
        )

    def __len__(self) -> int:
        return int(self.feature.shape[0])

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CandidateTable):
            return (
                np.array_equal(self.feature, other.feature)
                and np.array_equal(self.threshold_level, other.threshold_level)
                and np.array_equal(self.gini, other.gini)
                and np.array_equal(self.n_left, other.n_left)
                and np.array_equal(self.n_right, other.n_right)
            )
        return NotImplemented


def class_histogram(y: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class sample counts of a label vector."""
    return np.bincount(y, minlength=n_classes).astype(np.int64)


def enumerate_split_candidates(
    X_levels: np.ndarray,
    y: np.ndarray,
    indices: np.ndarray,
    n_classes: int,
    n_levels: int,
    min_samples_leaf: int = 1,
    flip_sigma: float | None = None,
) -> CandidateTable:
    """Enumerate every valid split of the node containing ``indices``.

    :func:`split_node_batch` on a batch of one node.

    Parameters
    ----------
    X_levels:
        Full quantized feature matrix, shape ``(n_samples, n_features)``,
        integer levels in ``[0, n_levels - 1]``.
    y:
        Full label vector, integer classes in ``[0, n_classes - 1]``.
    indices:
        Row indices of the samples that reached the node (an integer
        array; anything else, a boolean mask included, is a ``TypeError``).
    n_classes:
        Number of classes in the task.
    n_levels:
        Number of quantization levels (``2**resolution_bits``).
    min_samples_leaf:
        A split is only valid when both children receive at least this many
        samples.
    flip_sigma:
        When not ``None``, the comparator offset sigma as a fraction of the
        ADC full scale (``sigma_volts / vdd``): also fill the
        ``expected_flips`` column.

    Returns
    -------
    CandidateTable
        All valid candidates, ordered by ``(feature, threshold_level)``.
        Candidates are reported only for thresholds that actually separate
        the node's samples ("C value in dataset" in Algorithm 1), i.e. both
        children are non-empty.
    """
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu":
        # A boolean mask would index fine but count every sample as the node.
        raise TypeError(
            f"indices must be an integer array of row indices, got dtype {indices.dtype}"
        )
    batch = split_node_batch(
        X_levels[indices], y[indices], None, 1,
        n_classes, n_levels, min_samples_leaf, flip_sigma,
    )
    if batch.feature.size == 0:
        return CandidateTable.empty()
    return CandidateTable(
        feature=batch.feature,
        threshold_level=batch.threshold_level,
        gini=batch.gini,
        n_left=batch.n_left,
        n_right=batch.n_right,
        expected_flips=batch.expected_flips,
    )


class NodeBatch(NamedTuple):
    """The valid splits of a batch of nodes, as parallel columns.

    Rows are ordered by ``(node, feature, threshold_level)``; node ``i``
    owns rows ``bounds[i]:bounds[i + 1]``.  The columns of one node's rows
    are that node's :class:`CandidateTable`.  ``left_counts`` and
    ``right_counts`` are the ``(rows, n_classes)`` class histograms of the
    two children of each split.
    """

    bounds: np.ndarray           #: int64, ``n_nodes + 1`` row offsets
    feature: np.ndarray
    threshold_level: np.ndarray
    gini: np.ndarray
    n_left: np.ndarray
    n_right: np.ndarray
    expected_flips: np.ndarray | None
    left_counts: np.ndarray
    right_counts: np.ndarray


def split_node_batch(
    X_rows: np.ndarray,
    y_rows: np.ndarray,
    node_of_row: np.ndarray | None,
    n_nodes: int,
    n_classes: int,
    n_levels: int,
    min_samples_leaf: int = 1,
    flip_sigma: float | None = None,
) -> NodeBatch:
    """Every valid split of ``n_nodes`` nodes from one histogram pass.

    ``X_rows`` / ``y_rows`` are the samples of the batch and
    ``node_of_row`` the node (``0 .. n_nodes - 1``) each belongs to
    (``None`` for a batch of one node).  One ``bincount`` builds the
    ``(node, feature, level, class)`` histogram and one cumulative sum along
    the level axis yields the left child of every threshold ``k`` (the
    samples with level ``< k``).  The weighted Gini -- and the expected
    flips, with ``flip_sigma`` -- are computed only on the valid rows,
    gathered as ``(rows, n_classes)`` count rows; each element goes through
    the same floating-point operations as in a one-node enumeration, so a
    node's scores do not depend on its batch.
    """
    n_features = X_rows.shape[1]
    if X_rows.size and not 0 <= int(X_rows.min()) <= int(X_rows.max()) < n_levels:
        # An out-of-range level would land in a neighbouring feature's
        # histogram block and silently corrupt its Gini scores.
        raise ValueError(
            f"quantized levels must lie in [0, {n_levels - 1}], "
            f"got [{int(X_rows.min())}, {int(X_rows.max())}]"
        )
    n_thresholds = n_levels - 1
    block = n_features * n_levels * n_classes
    feature_base = np.arange(n_features, dtype=np.int64) * (n_levels * n_classes)
    labels = y_rows if node_of_row is None else node_of_row * block + y_rows
    codes = labels[:, np.newaxis] + (feature_base[np.newaxis, :] + X_rows * n_classes)
    hist = np.bincount(codes.ravel(), minlength=n_nodes * block).reshape(
        n_nodes, n_features, n_levels, n_classes
    )
    # row ``cell * n_levels + level`` of the flattened cumulative counts
    # (cell = node * n_features + feature) counts the samples below level + 1
    cumulative = np.cumsum(hist, axis=2).reshape(-1, n_classes)
    level_counts = hist.sum(axis=3)                               # (N, F, L)
    below = np.cumsum(level_counts, axis=2)
    n_left_all = below[:, :, :-1]
    n_right_all = below[:, :, -1:] - n_left_all
    valid = (n_left_all >= min_samples_leaf) & (n_right_all >= min_samples_leaf)
    flat = np.flatnonzero(valid)                                  # (K,)
    cell, position = np.divmod(flat, n_thresholds)
    row = cell * n_levels + position
    total_row = cell * n_levels + n_thresholds
    n_left = below.ravel()[row]
    n_node = below.ravel()[total_row]
    n_right = n_node - n_left
    left = cumulative[row]                                        # (K, C)
    right = cumulative[total_row] - left
    # valid rows have n_left, n_right >= 1
    gini_left = 1.0 - ((left / n_left[:, np.newaxis]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right / n_right[:, np.newaxis]) ** 2).sum(axis=1)
    gini = (n_left * gini_left + n_right * gini_right) / n_node

    expected_flips = None
    if flip_sigma is not None:
        # expected_flips[f, k - 1] = sum over levels of count * P(flip | level,
        # k, sigma) / node size: one matrix product per node
        flips = level_counts @ level_flip_matrix(n_levels, float(flip_sigma))
        flips = flips / np.maximum(below[:, :1, -1:], 1)          # (N, F, T)
        expected_flips = flips.reshape(-1)[flat]

    return NodeBatch(
        bounds=np.searchsorted(cell, np.arange(n_nodes + 1) * n_features),
        feature=cell % n_features,
        threshold_level=position + 1,
        gini=gini,
        n_left=n_left,
        n_right=n_right,
        expected_flips=expected_flips,
        left_counts=left,
        right_counts=right,
    )


#: Capacity of the :func:`shared_split_tables` memo, in tables.
SHARED_TABLES_MAX_ENTRIES = 256


class _SharedTables(threading.local):
    """Per-thread state of the :func:`shared_split_tables` memo."""

    def __init__(self) -> None:
        self.depth = 0                        # open scopes
        self.data_key: bytes | None = None    # digest of the bound training set
        self.tables: OrderedDict[tuple, CandidateTable] = OrderedDict()


_SHARED = _SharedTables()
# a forked worker starts with no scope open and no tables
os.register_at_fork(after_in_child=_SHARED.__init__)


@contextmanager
def shared_split_tables():
    """Share node candidate tables between the fits made inside the scope.

    Nested scopes share the outer memo; it is emptied when the outermost
    scope exits.  Trees do not change, only how often nodes are enumerated.
    """
    _SHARED.depth += 1
    try:
        yield
    finally:
        _SHARED.depth -= 1
        if _SHARED.depth == 0:
            _SHARED.tables.clear()
            _SHARED.data_key = None


def bind_training_set(
    X_levels: np.ndarray, y: np.ndarray, n_classes: int, n_levels: int
) -> bytes | None:
    """Bind the memo to a fit's training set; its key for :func:`shared_candidates`.

    Returns ``None`` outside a :func:`shared_split_tables` scope.  Binding
    another training set than the memo holds clears it.  The levels must lie
    in ``[0, n_levels)`` and the labels in ``[0, n_classes)`` (the trainer
    checks both first): the digest reads them in the narrowest dtype that
    holds those ranges.
    """
    if not _SHARED.depth:
        return None
    digest = hashlib.sha256(repr((X_levels.shape, n_classes, n_levels)).encode())
    digest.update(np.ascontiguousarray(X_levels, np.min_scalar_type(n_levels - 1)))
    digest.update(np.ascontiguousarray(y, np.min_scalar_type(n_classes - 1)))
    data_key = digest.digest()
    if data_key != _SHARED.data_key:
        _SHARED.tables.clear()
        _SHARED.data_key = data_key
    return data_key


def shared_candidates(
    data_key: bytes | None,
    X_levels: np.ndarray,
    y: np.ndarray,
    indices: np.ndarray,
    n_classes: int,
    n_levels: int,
    min_samples_leaf: int = 1,
    flip_sigma: float | None = None,
) -> CandidateTable:
    """:func:`enumerate_split_candidates`, through the memo when ``data_key`` is bound.

    ``data_key`` is what :func:`bind_training_set` returned for this
    training set; with ``None``, once the memo is bound to another training
    set, or for indices that are not int64, this is a plain enumeration.
    """
    node = np.asarray(indices)
    if data_key is None or data_key != _SHARED.data_key or node.dtype != np.int64:
        return enumerate_split_candidates(
            X_levels, y, node, n_classes, n_levels, min_samples_leaf, flip_sigma
        )
    key = (hashlib.sha256(np.ascontiguousarray(node)).digest(), min_samples_leaf, flip_sigma)
    tables = _SHARED.tables
    table = tables.get(key)
    if table is not None:
        tables.move_to_end(key)
        return table
    table = enumerate_split_candidates(
        X_levels, y, node, n_classes, n_levels, min_samples_leaf, flip_sigma
    )
    for column in (table.feature, table.threshold_level, table.gini, table.n_left,
                   table.n_right, table.expected_flips):
        if column is not None:
            column.setflags(write=False)
    tables[key] = table
    if len(tables) > SHARED_TABLES_MAX_ENTRIES:
        tables.popitem(last=False)
    return table
