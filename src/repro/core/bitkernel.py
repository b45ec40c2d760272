"""Bit-parallel packed-uint64 inference kernels for unary decision trees.

The paper's core observation (Section III-A) is that a unary/thermometer-coded
decision tree *is* two-level logic: every root-to-leaf path is one AND cube
over unary digits and every class label is an OR of its cubes.  The batch
engine of :class:`~repro.core.unary_tree.UnaryDecisionTree` already evaluates
that logic, but as float/boolean ndarray broadcasts -- one fancy-indexed
gather and reduction per cube over an ``(n_samples, n_digits)`` matrix.

This module compiles the same logic down to machine words:

1. **Cube extraction** -- the tree's minimized per-class
   :class:`~repro.circuits.two_level.SumOfProducts` (the tree is the oracle;
   the SOP is the intermediate form) becomes, per class, a list of
   ``(positive digit columns, negated digit columns)`` index pairs.
2. **Word packing** -- the digit matrix is packed column-wise into ``uint64``
   words (:func:`~repro.adc.thermometer.pack_digit_matrix`), 64 samples per
   word, LSB = lowest sample index.
3. **Evaluation** -- each cube is a chain of bitwise AND over its digit
   words (complemented for negated literals); a class fires where any of its
   cubes does (bitwise OR); the winning label per sample is the *lowest*
   firing class, resolved first-wins in the packed domain.

The result is bit-identical to
:meth:`~repro.core.unary_tree.UnaryDecisionTree.predict_digit_matrix` /
``predict_from_digits_batch`` -- including the ``ValueError`` raised when a
digit assignment is inconsistent with a thermometer code -- while the hot
loop touches ``n_samples / 64`` words per literal instead of ``n_samples``
bools per literal.  See ``docs/KERNELS.md`` for the layout and tie-break
semantics, and ``benchmarks/bench_inference_throughput.py`` for the measured
gain over the broadcast path.

Compiled kernels are cached on the tree instance, so repeated evaluation
calls (a promoted design, a scoring service) compile once per trained tree:
use :func:`compile_tree_kernel` rather than constructing
:class:`CompiledTreeKernel` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adc.thermometer import (
    WORD_BITS,
    pack_digit_matrix,
    packed_tail_mask,
    quantize_array_to_levels,
)
from repro.mltrees.tree import DecisionTree

_FULL_WORD = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: Cache attribute attached to the *tree* instance (trees are shared by
#: design points, suite results and the store; the kernel rides along).
_CACHE_ATTR = "_compiled_bitkernel"


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


class CompiledTreeKernel:
    """A trained tree compiled into per-class packed-word cube masks.

    Construction extracts the minimized sum-of-products label logic from the
    tree (via :class:`~repro.core.unary_tree.UnaryDecisionTree`, reusing
    :class:`~repro.circuits.two_level.SumOfProducts` as the intermediate
    form) and resolves every literal to its digit-matrix column, exactly as
    the batch engine does -- the two paths evaluate the same cubes over the
    same columns and therefore agree bit for bit.
    """

    def __init__(self, tree: DecisionTree):
        # Local import: unary_tree imports circuit modules; keeping it out of
        # module scope lets the ADC/thermometer layer import this module.
        from repro.core.unary_tree import UnaryDecisionTree

        self.tree = tree
        unary = UnaryDecisionTree(tree)
        self.n_classes = unary.n_classes
        self.resolution_bits = unary.resolution_bits
        #: ``(feature, level)`` per digit column, in digit-matrix order.
        self.comparators = unary.comparators
        self._features = np.array([f for f, _ in self.comparators], dtype=np.intp)
        self._levels = np.array([k for _, k in self.comparators], dtype=np.int64)
        digit_index = {name: i for i, name in enumerate(unary.digit_variables())}
        #: per class, per cube: (positive column indices, negated column indices)
        self.cubes: list[list[tuple[np.ndarray, np.ndarray]]] = []
        for label in range(self.n_classes):
            compiled: list[tuple[np.ndarray, np.ndarray]] = []
            for term in unary.label_logic[label].terms:
                positive = sorted(digit_index[lit.name] for lit in term if lit.positive)
                negated = sorted(digit_index[lit.name] for lit in term if not lit.positive)
                compiled.append(
                    (np.array(positive, dtype=np.intp), np.array(negated, dtype=np.intp))
                )
            self.cubes.append(compiled)

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
        """Total literals (word-AND operations per evaluated word column)."""
        return sum(
            len(positive) + len(negated)
            for compiled in self.cubes
            for positive, negated in compiled
        )

    # ------------------------------------------------------------------ #
    # packing
    # ------------------------------------------------------------------ #
    def digit_matrix_from_levels(self, X_levels: np.ndarray) -> np.ndarray:
        """Comparator outputs of a quantized-sample matrix (broadcast compare)."""
        X_levels = np.asarray(X_levels)
        if X_levels.ndim != 2:
            raise ValueError("expected a 2-D matrix of quantized samples")
        return X_levels[:, self._features] >= self._levels[np.newaxis, :]

    def pack_digit_matrix(self, digits: np.ndarray) -> PackedDigitBatch:
        """Pack an ``(n_samples, n_digits)`` digit matrix into word columns."""
        digits = np.asarray(digits, dtype=bool)
        if digits.ndim != 2 or digits.shape[1] != self.n_digits:
            raise ValueError(
                f"expected an (n_samples, {self.n_digits}) digit matrix, "
                f"got {digits.shape}"
            )
        return PackedDigitBatch(pack_digit_matrix(digits), digits.shape[0])

    def pack_levels(self, X_levels: np.ndarray) -> PackedDigitBatch:
        """Quantized samples straight to packed words (compare + pack)."""
        return self.pack_digit_matrix(self.digit_matrix_from_levels(X_levels))

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
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
        (inconsistent with a thermometer code), mirroring the batch engine.
        """
        fired = self.fired_words(batch)
        n_samples = batch.n_samples
        # First-wins in the packed domain == lowest firing label (argmax on
        # the boolean fired matrix), the batch engine's tie-break rule.  The
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
        """Predict classes for a matrix of quantized samples."""
        return self.predict_packed(self.pack_levels(X_levels))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict classes for raw normalized samples in ``[0, 1]``."""
        levels = quantize_array_to_levels(np.asarray(X, dtype=float), self.resolution_bits)
        return self.predict_levels(levels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledTreeKernel(digits={self.n_digits}, cubes={self.n_cubes}, "
            f"literals={self.n_literals}, classes={self.n_classes}, "
            f"word_bits={WORD_BITS})"
        )


def compile_tree_kernel(tree: DecisionTree) -> CompiledTreeKernel:
    """Compile ``tree`` into a :class:`CompiledTreeKernel`, cached per tree.

    The kernel is memoized on the tree instance itself, so every consumer of
    the same trained tree -- the design point that owns it, the engine
    dispatch in :mod:`repro.mltrees.evaluation`, a scoring loop -- shares one
    compilation.  Trees are structurally immutable after training, which
    makes the instance cache safe.
    """
    kernel = getattr(tree, _CACHE_ATTR, None)
    if kernel is None:
        kernel = CompiledTreeKernel(tree)
        setattr(tree, _CACHE_ATTR, kernel)
    return kernel
