"""Bit-parallel evaluation of a unary tree's label logic over bitsets.

The paper's core observation (Section III-A) is that a unary/thermometer-coded
decision tree *is* two-level logic: every root-to-leaf path is one AND cube
over unary digits and every class label is an OR of its cubes.  This module
evaluates that logic over whole digit matrices, one bit per sample:

1. **Cube extraction** -- the minimized per-class
   :class:`~repro.circuits.two_level.SumOfProducts` of a
   :class:`~repro.core.unary_tree.UnaryDecisionTree` becomes, per class, a
   list of ``(positive digit columns, negated digit columns)`` index pairs,
   read off each term's ``(name, positive)`` literals.
   The kernel reuses the unary tree's logic, so each tree is minimized once.
2. **Packing** -- each digit column becomes one bitset with bit ``s``
   holding sample ``s``.  Batches of up to :data:`INT_BITSET_MAX_SAMPLES`
   samples use one arbitrary-precision Python ``int`` per column, where a
   bitwise op costs tens of nanoseconds instead of a numpy call's
   microseconds; larger batches use ``uint64`` word arrays
   (:func:`~repro.adc.thermometer.pack_digit_matrix`, 64 samples per word).
3. **Evaluation** -- one loop serves both containers with the same ``&``,
   ``|``, ``~`` and ``^`` operators: each cube is an AND chain over its
   digit bitsets (complemented for negated literals); a class fires where
   any of its cubes does (OR); the winning label per sample is the *lowest*
   firing class, resolved first-wins on the bitsets.

The kernel is the one evaluator of digit matrices -- Monte-Carlo offset
trials and bespoke front-end batches, reached through
:meth:`UnaryDecisionTree.predict_digit_matrix
<repro.core.unary_tree.UnaryDecisionTree.predict_digit_matrix>` and
``predict_from_digits_batch``.  It agrees with the scalar rule of evaluating
every label's sum-of-products on one digit assignment (kept in
``tests/oracles/unary_scalar.py``) -- including the ``ValueError`` raised
when a digit assignment is inconsistent with a thermometer code.
:meth:`CompiledTreeKernel.predict_levels` is the levels entry of the unary
tree and of the serving scorer
(:class:`~repro.serve.scorer.AsyncScorer`), whose flushes of a few rows run
on the int bitsets; accuracy scoring evaluates quantized levels with the
tree's array gather (:meth:`~repro.mltrees.tree.DecisionTree.predict_levels`).
See ``docs/KERNELS.md`` for the layout, the tie-break semantics and the
measurements.
"""

from __future__ import annotations

import numpy as np

from repro.adc.thermometer import WORD_BITS, pack_digit_matrix, packed_tail_mask

#: Largest batch evaluated on Python ``int`` bitsets; larger batches use
#: ``uint64`` word arrays.  An int op's cost grows with its length while a
#: numpy call's is mostly fixed, and the two cross between 2^14 and 2^16
#: samples on a depth-8 tree (``docs/KERNELS.md``).
INT_BITSET_MAX_SAMPLES = 1 << 15

_FULL_WORD = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


class CompiledTreeKernel:
    """A unary tree's label logic compiled into per-class cubes of digit columns.

    Construction resolves every literal of the unary tree's minimized
    sum-of-products to its digit-matrix column (the :attr:`comparators`
    order); the tree's logic is read, never rebuilt.  Build it through
    :attr:`UnaryDecisionTree.kernel
    <repro.core.unary_tree.UnaryDecisionTree.kernel>`.
    """

    def __init__(self, unary):
        self.n_classes = unary.n_classes
        #: ``(feature, level)`` per digit column, in digit-matrix order.
        self.comparators = unary.comparators
        self._features = np.array([f for f, _ in self.comparators], dtype=np.intp)
        self._levels = np.array([k for _, k in self.comparators], dtype=np.int64)
        digit_index = {name: i for i, name in enumerate(unary.digit_variables())}
        label_logic = unary.label_logic
        #: per class, per cube: (positive column indices, negated column indices)
        self.cubes: list[list[tuple[tuple[int, ...], tuple[int, ...]]]] = [
            [
                (
                    tuple(sorted(digit_index[name] for name, positive in term if positive)),
                    tuple(sorted(digit_index[name] for name, positive in term if not positive)),
                )
                for term in label_logic[label].literal_lists()
            ]
            for label in range(self.n_classes)
        ]

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    @property
    def n_digits(self) -> int:
        """Digit-matrix columns the kernel consumes (= retained comparators)."""
        return len(self.comparators)

    @property
    def n_cubes(self) -> int:
        """Total AND cubes across all class labels."""
        return sum(len(compiled) for compiled in self.cubes)

    @property
    def n_literals(self) -> int:
        """Total literals (bitset ANDs per evaluated batch)."""
        return sum(
            len(positive) + len(negated)
            for compiled in self.cubes
            for positive, negated in compiled
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def _label_planes(self, columns, full):
        """Binary bit-planes of the lowest firing label, and the unclaimed lanes.

        ``columns[c]`` is digit column ``c``'s bitset and ``full`` has a bit
        set for every real sample, both Python ints or both ``uint64`` word
        arrays.  No value ever leaves ``full``: each cube starts from it, so
        a complement never lights a padding lane.  Every operator builds a
        new value, so no word array is ever written in place.
        """
        n_label_bits = max(1, (self.n_classes - 1).bit_length())
        zero = full ^ full
        planes = [zero] * n_label_bits
        remaining = full
        for label, compiled in enumerate(self.cubes):
            fired = zero
            for positive, negated in compiled:
                cube = full  # an empty cube is constant true
                for column in positive:
                    cube = cube & columns[column]
                if len(negated):
                    # De Morgan: AND of complements == complemented OR.
                    folded = columns[negated[0]]
                    for column in negated[1:]:
                        folded = folded | columns[column]
                    cube = cube & ~folded
                fired = fired | cube
            # First-wins == lowest firing label, the scalar path's tie-break.
            take = fired & remaining
            for bit in range(n_label_bits):
                if (label >> bit) & 1:
                    planes[bit] = planes[bit] | take
            remaining = remaining ^ take
        return planes, remaining

    def predict_digit_matrix(self, digits: np.ndarray) -> np.ndarray:
        """Predict classes for an ``(n_samples, n_digits)`` digit matrix.

        Raises ``ValueError`` when any sample fires no label function
        (inconsistent with a thermometer code).
        """
        digits = np.asarray(digits, dtype=bool)
        if digits.ndim != 2 or digits.shape[1] != self.n_digits:
            raise ValueError(
                f"expected an (n_samples, {self.n_digits}) digit matrix, "
                f"got {digits.shape}"
            )
        n_samples = digits.shape[0]
        if n_samples <= INT_BITSET_MAX_SAMPLES:
            rows = np.packbits(np.ascontiguousarray(digits.T), axis=1, bitorder="little")
            packed, width = rows.tobytes(), rows.shape[1]
            columns = [
                int.from_bytes(packed[c * width : (c + 1) * width], "little")
                for c in range(len(rows))
            ]
            planes, remaining = self._label_planes(columns, (1 << n_samples) - 1)
            n_bytes = -(-n_samples // 8)
            plane_bytes = np.frombuffer(
                b"".join(plane.to_bytes(n_bytes, "little") for plane in planes),
                dtype=np.uint8,
            ).reshape(len(planes), n_bytes)
            unclaimed = remaining != 0
        else:
            words = pack_digit_matrix(digits)
            full = np.full(words.shape[1], _FULL_WORD)
            full[-1] = packed_tail_mask(n_samples)
            planes, remaining = self._label_planes(words, full)
            plane_bytes = np.stack(planes).view(np.uint8)
            unclaimed = remaining.any()
        if unclaimed:
            raise ValueError(
                "no label function fired; the digit assignment is inconsistent "
                "with a thermometer code"
            )
        plane_bits = np.unpackbits(plane_bytes, axis=1, bitorder="little")[:, :n_samples]
        if len(planes) <= 8:  # uint8 assembly; 8 planes cover 256 classes
            labels8 = plane_bits[0]
            for bit in range(1, len(planes)):
                labels8 = labels8 | (plane_bits[bit] << np.uint8(bit))
            return labels8.astype(np.int64)
        labels = plane_bits[0].astype(np.int64)
        for bit in range(1, len(planes)):
            labels |= plane_bits[bit].astype(np.int64) << bit
        return labels

    def predict_levels(self, X_levels: np.ndarray) -> np.ndarray:
        """Predict classes for quantized samples: broadcast compare, then evaluate.

        Column ``c`` of the digit matrix is ``X_levels[:, feature_c] >=
        level_c`` for the retained comparator ``c``.
        """
        X_levels = np.asarray(X_levels)
        if X_levels.ndim != 2:
            raise ValueError("expected a 2-D matrix of quantized samples")
        return self.predict_digit_matrix(X_levels[:, self._features] >= self._levels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledTreeKernel(digits={self.n_digits}, cubes={self.n_cubes}, "
            f"literals={self.n_literals}, classes={self.n_classes}, "
            f"word_bits={WORD_BITS})"
        )
