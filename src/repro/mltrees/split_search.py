"""Columnar enumeration of candidate splits on quantized features.

Both the conventional CART trainer and the ADC-aware trainer (Algorithm 1 of
the paper) need, at every node, the Gini score of **every** candidate
``(feature, threshold)`` pair -- the ADC-aware variant because it builds the
tolerance set ``S = {(Ii, C) | Gini(Ii, C) <= G + tau}`` from them.

Because the inputs are quantized to ``2**resolution_bits`` levels, each
feature has at most ``2**resolution_bits - 1`` distinct thresholds, so the
whole candidate set of a node is computed from one ``(feature, level,
class)`` histogram -- a single ``bincount`` over all features at once -- and
one cumulative sum.  The result is a :class:`CandidateTable` of parallel
ndarrays (``feature``, ``threshold_level``, ``gini``, ``n_left``,
``n_right``): no per-feature Python loop and no per-candidate object
construction.  Trainers select splits with array reductions over the table
and materialize one :class:`SplitCandidate` -- the chosen row -- per node.

Offset-aware training reuses the very same histogram pass: when a
``flip_sigma`` is requested, :func:`enumerate_split_candidates` additionally
fills two robustness columns per candidate --

* ``margin``: normalized distance from the comparator threshold to the
  nearest sample in the node (a threshold in a dense sample region has a
  tiny margin and is fragile under comparator input offsets), and
* ``expected_flips``: the expected fraction of the node's samples whose
  comparator digit flips under a Gaussian input offset of ``flip_sigma``
  (as a fraction of full scale), computed analytically from the per-level
  sample counts and the Gaussian CDF of the cell-center margins

-- one matrix product over the already-computed level histogram, no extra
pass over the samples.  Trainers fold ``expected_flips`` into the split
score (see ``robustness_weight`` on the trainers); with the feature
disabled the columns are ``None`` and the enumeration is bit-identical to
the nominal path.

Trees trained on one training set share most of their nodes: baseline
[2]'s depth sweep refits CART at depths 1..8, baseline [7] refits it from
the reference depth up, and the ADC-aware tau families start from the same
root.  Inside a :func:`shared_split_tables` scope each node's table is
therefore computed once and shared.  The memo's key is the digest of the
training set (``X_levels``, ``y``, their shape, ``n_classes`` and
``n_levels``, taken once per fit by :func:`bind_training_set`), the digest
of the node's int64 index bytes, ``min_samples_leaf`` and ``flip_sigma``.
Shared tables are read-only.  The memo is cleared when a fit binds another
training set and when the outermost scope exits, it holds at most
:data:`SHARED_TABLES_MAX_ENTRIES` tables (least recently used first out),
and it is per thread and empty in a forked child.  Enumeration is
deterministic, so a shared table is the table a fresh enumeration would
return: trees and RNG draws do not depend on the scope.

The pre-columnar object-building enumeration is retained verbatim in
``tests/oracles/legacy_split_search.py`` as the oracle for the equivalence
tests and the training-throughput benchmark, together with the object-list
helpers (table <-> list conversion, ``best_gini`` of a list) that only the
oracle and the tests use.
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

    The two robustness columns (``margin``, ``expected_flips``) are ``None``
    unless the enumeration was asked for them (``flip_sigma``); they ride
    along through :meth:`select`, and table equality intentionally compares
    only the five nominal columns, so offset-aware tables still equal their
    nominal counterparts when the split geometry is identical.
    """

    feature: np.ndarray          #: int64, feature index per candidate
    threshold_level: np.ndarray  #: int64, threshold level per candidate
    gini: np.ndarray             #: float64, weighted Gini of the split
    n_left: np.ndarray           #: int64, samples sent to the left child
    n_right: np.ndarray          #: int64, samples sent to the right child
    #: float64 or None: normalized distance from the threshold to the
    #: nearest sample of the node (see ``flip_sigma``)
    margin: np.ndarray | None = field(default=None)
    #: float64 or None: expected fraction of node samples whose digit flips
    #: under a Gaussian offset of the requested sigma
    expected_flips: np.ndarray | None = field(default=None)

    # ------------------------------------------------------------------ #
    # columnar operations (the fast path used by the trainers)
    # ------------------------------------------------------------------ #
    @property
    def best_gini(self) -> float:
        """Minimum Gini score in the table (``inf`` when empty)."""
        if self.gini.size == 0:
            return float("inf")
        return float(self.gini.min())

    def select(self, which: np.ndarray) -> "CandidateTable":
        """Sub-table of the rows picked by a boolean mask or index array."""
        return CandidateTable(
            feature=self.feature[which],
            threshold_level=self.threshold_level[which],
            gini=self.gini[which],
            n_left=self.n_left[which],
            n_right=self.n_right[which],
            margin=None if self.margin is None else self.margin[which],
            expected_flips=(
                None if self.expected_flips is None else self.expected_flips[which]
            ),
        )

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

    One vectorized pass over **all** features: a single ``bincount`` builds
    the ``(feature, level, class)`` histogram of the node, one cumulative sum
    along the level axis yields every left/right class-count pair, and the
    weighted Gini of all candidates falls out as one broadcast expression.

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
        When not ``None``, also fill the ``margin`` and ``expected_flips``
        robustness columns: the comparator offset sigma as a fraction of the
        ADC full scale (``sigma_volts / vdd``).  The columns fall out of the
        same level histogram (one matrix product against the cached
        :func:`level_flip_matrix`), so requesting them does not add a pass
        over the samples.  ``None`` (the default) leaves the columns unset
        and the enumeration bit-identical to the nominal path.

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
    if indices.size == 0:
        return CandidateTable.empty()
    y_node = y[indices]
    n_node = indices.size
    n_features = X_levels.shape[1]
    n_thresholds = n_levels - 1  # k = 1 .. n_levels - 1

    # hist[feature, level, class] via one flat bincount over all features
    values = X_levels[indices]  # (n_node, n_features)
    if int(values.max()) >= n_levels:
        # An out-of-range level would land in the *next* feature's histogram
        # block and silently corrupt its Gini scores; fail loudly instead
        # (negative levels already make bincount raise).
        raise ValueError(
            f"quantized levels must lie in [0, {n_levels - 1}], "
            f"got {int(values.max())}"
        )
    feature_base = np.arange(n_features, dtype=np.int64) * (n_levels * n_classes)
    codes = feature_base[np.newaxis, :] + values * n_classes + y_node[:, np.newaxis]
    hist = np.bincount(
        codes.ravel(), minlength=n_features * n_levels * n_classes
    ).reshape(n_features, n_levels, n_classes)

    # left child of threshold k = samples with level < k
    cumulative = np.cumsum(hist, axis=1)                    # (F, L, C)
    total_counts = cumulative[:, -1, :]                     # (F, C)
    left_counts = cumulative[:, :-1, :]                     # (F, T, C)
    right_counts = total_counts[:, np.newaxis, :] - left_counts
    n_left = left_counts.sum(axis=2)                        # (F, T)
    n_right = right_counts.sum(axis=2)

    valid = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    rows = np.nonzero(valid.ravel())[0]
    if rows.size == 0:
        return CandidateTable.empty()

    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = 1.0 - np.sum(
            (left_counts / np.maximum(n_left, 1)[:, :, np.newaxis]) ** 2, axis=2
        )
        gini_right = 1.0 - np.sum(
            (right_counts / np.maximum(n_right, 1)[:, :, np.newaxis]) ** 2, axis=2
        )
    weighted = (n_left * gini_left + n_right * gini_right) / n_node

    margin = expected_flips = None
    if flip_sigma is not None:
        level_counts = hist.sum(axis=2)                     # (F, L)
        margin_fl, flips_fl = _robustness_columns(
            level_counts, n_node, n_levels, float(flip_sigma)
        )
        margin = margin_fl.ravel()[rows]
        expected_flips = flips_fl.ravel()[rows]

    return CandidateTable(
        feature=rows // n_thresholds,
        threshold_level=rows % n_thresholds + 1,
        gini=weighted.ravel()[rows],
        n_left=n_left.ravel()[rows],
        n_right=n_right.ravel()[rows],
        margin=margin,
        expected_flips=expected_flips,
    )


def _robustness_columns(
    level_counts: np.ndarray, n_node: int, n_levels: int, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Margin and expected-flip matrices of one node, shape ``(F, T)``.

    ``level_counts[feature, level]`` are the node's per-level sample counts
    (the class axis of the histogram already summed out).

    * ``expected_flips[f, k - 1]`` = sum over levels of ``count *
      P(flip | level, k, sigma)`` divided by the node size -- one matrix
      product against the cached :func:`level_flip_matrix`.
    * ``margin[f, k - 1]`` = normalized distance from threshold ``k`` to the
      nearest *occupied* level's cell center, found with two running
      extrema over the occupancy mask (no per-threshold scan).  Thresholds
      with an empty side get ``inf`` on that side; such rows never describe
      a valid split (one child would be empty), so callers only ever see
      finite margins.
    """
    flip_matrix = level_flip_matrix(n_levels, sigma)        # (L, T)
    expected_flips = (level_counts @ flip_matrix) / n_node  # (F, T)

    level_index = np.arange(n_levels, dtype=float)
    occupied = level_counts > 0
    # highest occupied level <= l  /  lowest occupied level >= l
    below = np.maximum.accumulate(
        np.where(occupied, level_index, -np.inf), axis=1
    )
    above = np.minimum.accumulate(
        np.where(occupied, level_index, np.inf)[:, ::-1], axis=1
    )[:, ::-1]
    thresholds = np.arange(1, n_levels, dtype=float)
    # distance from threshold k to the cell centers of the nearest occupied
    # level strictly below (level <= k - 1) and at-or-above (level >= k)
    margin_below = thresholds[np.newaxis, :] - (below[:, :-1] + 0.5)
    margin_above = (above[:, 1:] + 0.5) - thresholds[np.newaxis, :]
    margin = np.minimum(margin_below, margin_above) / n_levels
    return margin, expected_flips


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
                   table.n_right, table.margin, table.expected_flips):
        if column is not None:
            column.setflags(write=False)
    tables[key] = table
    if len(tables) > SHARED_TABLES_MAX_ENTRIES:
        tables.popitem(last=False)
    return table
