"""The all-words bit-parallel evaluator, kept as the kernel's reference.

:class:`PackedWordKernel` is the evaluator of
:class:`~repro.core.bitkernel.CompiledTreeKernel` from before small batches
moved onto Python ``int`` bitsets: every batch, however small, is packed
into ``uint64`` words and each literal is one in-place numpy call on two
preallocated scratch word vectors.  The evaluation methods are kept
verbatim.  The kernel must return the same labels on every input, and raise
the same ``ValueError`` on every digit row that fires no label, on both
sides of :data:`~repro.core.bitkernel.INT_BITSET_MAX_SAMPLES`.
``benchmarks/bench_inference_throughput.py`` times serving-sized batches
against it.  No production path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adc.thermometer import pack_digit_matrix, packed_tail_mask

_FULL_WORD = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass(frozen=True)
class PackedDigitBatch:
    """A digit matrix packed for word-parallel evaluation.

    ``words`` has shape ``(n_digits, n_words)`` with the layout of
    :func:`~repro.adc.thermometer.pack_digit_matrix`; ``n_samples`` recovers
    the ragged tail (batches need not be multiples of 64).
    """

    words: np.ndarray
    n_samples: int

    @property
    def n_words(self) -> int:
        """Number of 64-bit words per digit column."""
        return self.words.shape[1]


class PackedWordKernel:
    """A kernel's cube table evaluated on ``uint64`` words at every size."""

    def __init__(self, kernel):
        self.n_classes = kernel.n_classes
        self.comparators = kernel.comparators
        self._features = np.array([f for f, _ in self.comparators], dtype=np.intp)
        self._levels = np.array([k for _, k in self.comparators], dtype=np.int64)
        #: per class, per cube: (positive column indices, negated column indices)
        self.cubes: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [
                (np.array(positive, dtype=np.intp), np.array(negated, dtype=np.intp))
                for positive, negated in compiled
            ]
            for compiled in kernel.cubes
        ]

    @property
    def n_digits(self) -> int:
        """Digit-matrix columns the kernel consumes (= retained comparators)."""
        return len(self.comparators)

    def pack_digit_matrix(self, digits: np.ndarray) -> PackedDigitBatch:
        """Pack an ``(n_samples, n_digits)`` digit matrix into word columns."""
        digits = np.asarray(digits, dtype=bool)
        if digits.ndim != 2 or digits.shape[1] != self.n_digits:
            raise ValueError(
                f"expected an (n_samples, {self.n_digits}) digit matrix, "
                f"got {digits.shape}"
            )
        return PackedDigitBatch(pack_digit_matrix(digits), digits.shape[0])

    def fired_words(self, batch: PackedDigitBatch) -> np.ndarray:
        """``(n_classes, n_words)`` packed firing masks of every label function.

        Bit ``s % 64`` of word ``fired[label, s // 64]`` is set when label
        ``label``'s sum-of-products fires for sample ``s``.  Padding bits of
        the final word are forced to zero (a complemented word would
        otherwise leak phantom samples into the tail).
        """
        words = batch.words
        n_words = batch.n_words
        fired = np.zeros((self.n_classes, n_words), dtype=np.uint64)
        # Two scratch word vectors, reused across every cube: the AND chains
        # and OR chains run in place on them, so the hot loop performs zero
        # allocations and no fancy-indexed gathers -- each literal is one
        # streaming binop over cache-resident words.
        cube = np.empty(n_words, dtype=np.uint64)
        folded = np.empty(n_words, dtype=np.uint64)
        for label, compiled in enumerate(self.cubes):
            acc_out = fired[label]
            for positive, negated in compiled:
                if positive.size:
                    np.copyto(cube, words[positive[0]])
                    for column in positive[1:]:
                        np.bitwise_and(cube, words[column], out=cube)
                else:  # empty/negated-only cube starts from constant true
                    cube[:] = _FULL_WORD
                if negated.size:
                    # De Morgan: AND of complements == complemented OR.
                    np.copyto(folded, words[negated[0]])
                    for column in negated[1:]:
                        np.bitwise_or(folded, words[column], out=folded)
                    np.invert(folded, out=folded)
                    np.bitwise_and(cube, folded, out=cube)
                np.bitwise_or(acc_out, cube, out=acc_out)
            # complemented words set the zero padding of the final word;
            # mask the tail back out so phantom samples never fire
            if n_words:
                acc_out[-1] &= packed_tail_mask(batch.n_samples)
        return fired

    def predict_packed(self, batch: PackedDigitBatch) -> np.ndarray:
        """Predict classes from packed words: lowest firing label per sample.

        Raises ``ValueError`` when any sample fires no label function
        (inconsistent with a thermometer code), mirroring
        :meth:`~repro.core.unary_tree.UnaryDecisionTree.predict_from_assignment`.
        """
        fired = self.fired_words(batch)
        n_samples = batch.n_samples
        # First-wins in the packed domain == lowest firing label (argmax on
        # the boolean fired matrix), the scalar path's tie-break rule.  The
        # winning label index is assembled as binary bit-planes while still
        # packed -- log2(n_classes) word vectors instead of one scatter per
        # class -- and unpacked once at the end.
        n_label_bits = max(1, (self.n_classes - 1).bit_length())
        planes = np.zeros((n_label_bits, batch.n_words), dtype=np.uint64)
        remaining = np.full(batch.n_words, _FULL_WORD, dtype=np.uint64)
        if batch.n_words:
            remaining[-1] = packed_tail_mask(n_samples)
        for label in range(self.n_classes):
            take = fired[label] & remaining
            for bit in range(n_label_bits):
                if (label >> bit) & 1:
                    planes[bit] |= take
            remaining &= ~take
        if remaining.any():
            raise ValueError(
                "no label function fired; the digit assignment is inconsistent "
                "with a thermometer code"
            )
        plane_bits = np.unpackbits(
            planes.view(np.uint8), axis=1, bitorder="little"
        )[:, :n_samples]
        if n_label_bits <= 8:  # uint8 assembly; 8 planes cover 256 classes
            labels8 = plane_bits[0]
            for bit in range(1, n_label_bits):
                labels8 = labels8 | (plane_bits[bit] << np.uint8(bit))
            return labels8.astype(np.int64)
        labels = plane_bits[0].astype(np.int64)
        for bit in range(1, n_label_bits):
            labels |= plane_bits[bit].astype(np.int64) << bit
        return labels

    def predict_digit_matrix(self, digits: np.ndarray) -> np.ndarray:
        """Pack and evaluate an ``(n_samples, n_digits)`` digit matrix."""
        return self.predict_packed(self.pack_digit_matrix(digits))

    def predict_levels(self, X_levels: np.ndarray) -> np.ndarray:
        """Predict classes for quantized samples: broadcast compare, then evaluate.

        Column ``c`` of the digit matrix is ``X_levels[:, feature_c] >=
        level_c`` for the retained comparator ``c``.
        """
        X_levels = np.asarray(X_levels)
        if X_levels.ndim != 2:
            raise ValueError("expected a 2-D matrix of quantized samples")
        return self.predict_digit_matrix(X_levels[:, self._features] >= self._levels)
