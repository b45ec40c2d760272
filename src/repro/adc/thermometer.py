"""Thermometer (parallel unary) coding utilities.

Conventions used throughout the repository (they mirror Eq. (1)/(2) of the
paper):

* Features are normalized to ``[0, 1]`` and digitized by an N-bit flash ADC
  whose comparator ``k`` (1-based, ``k = 1 .. 2**N - 1``) fires when the
  input is **at least** ``k / 2**N`` of full scale.
* The *level* of a sample is the number of comparators that fire, i.e. an
  integer in ``[0, 2**N - 1]``.
* The *unary digit* ``I[k]`` is comparator ``k``'s output, so
  ``I >= k/2**N  <=>  I[k] == 1`` -- exactly the reduction the parallel unary
  decision trees rely on.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def quantize_to_level(value: float, resolution_bits: int) -> int:
    """Digitize a normalized value into its flash-ADC level.

    Parameters
    ----------
    value:
        Normalized analog sample.  Values are clipped to ``[0, 1]``, which is
        what a real ADC does with out-of-range inputs.
    resolution_bits:
        ADC resolution N; the result lies in ``[0, 2**N - 1]``.
    """
    if resolution_bits < 1:
        raise ValueError("resolution must be at least 1 bit")
    n_levels = 2 ** resolution_bits
    clipped = min(max(float(value), 0.0), 1.0)
    level = int(np.floor(clipped * n_levels + 1e-12))
    return min(level, n_levels - 1)


def quantize_array_to_levels(values: np.ndarray, resolution_bits: int) -> np.ndarray:
    """Vectorized version of :func:`quantize_to_level` for feature matrices.

    A NaN has no level (it would cast to ``INT64_MIN``) and raises
    ``ValueError``; infinities clip like any out-of-range input.
    """
    if resolution_bits < 1:
        raise ValueError("resolution must be at least 1 bit")
    n_levels = 2 ** resolution_bits
    clipped = np.clip(np.asarray(values, dtype=float), 0.0, 1.0)
    if np.isnan(clipped).any():
        raise ValueError("cannot quantize NaN samples")
    levels = np.floor(clipped * n_levels + 1e-12).astype(np.int64)
    return np.minimum(levels, n_levels - 1)


def to_thermometer(level: int, n_taps: int) -> tuple[int, ...]:
    """Expand ``level`` into a thermometer code of ``n_taps`` digits.

    Digit ``k`` (1-based; index ``k - 1`` of the returned tuple) is 1 when
    ``level >= k``.
    """
    if n_taps < 1:
        raise ValueError("a thermometer code needs at least one digit")
    if not 0 <= level <= n_taps:
        raise ValueError(f"level {level} outside [0, {n_taps}]")
    return tuple(1 if level >= k else 0 for k in range(1, n_taps + 1))


def from_thermometer(code: Sequence[int]) -> int:
    """Recover the level from a thermometer code.

    Raises ``ValueError`` when the code is not a valid (monotone) thermometer
    word -- a '1' must never appear above a '0'.
    """
    if not is_valid_thermometer(code):
        raise ValueError(f"{list(code)!r} is not a valid thermometer code")
    return int(sum(1 for bit in code if bit))


def is_valid_thermometer(code: Sequence[int]) -> bool:
    """True when ``code`` is monotone non-increasing (all 1s then all 0s)."""
    seen_zero = False
    for bit in code:
        if bit not in (0, 1, True, False):
            return False
        if bit:
            if seen_zero:
                return False
        else:
            seen_zero = True
    return True


def unary_digit(level: int, k: int) -> int:
    """Value of unary digit ``k`` (1-based) for a sample at ``level``."""
    if k < 1:
        raise ValueError("unary digit indices are 1-based")
    return 1 if level >= k else 0


def level_to_binary(level: int, resolution_bits: int) -> tuple[int, ...]:
    """Binary representation of ``level``, MSB first."""
    if resolution_bits < 1:
        raise ValueError("resolution must be at least 1 bit")
    if not 0 <= level < 2 ** resolution_bits:
        raise ValueError(
            f"level {level} does not fit in {resolution_bits} unsigned bits"
        )
    return tuple((level >> shift) & 1 for shift in range(resolution_bits - 1, -1, -1))


def binary_to_level(bits: Sequence[int]) -> int:
    """Inverse of :func:`level_to_binary` (MSB first)."""
    level = 0
    for bit in bits:
        level = (level << 1) | (1 if bit else 0)
    return level


#: Machine-word width of the packed digit representation (bits per word).
WORD_BITS = 64


def pack_digit_matrix(digits: np.ndarray) -> np.ndarray:
    """Pack a boolean digit matrix column-wise into ``uint64`` words.

    ``digits`` is the ``(n_samples, n_digits)`` comparator-output matrix the
    batch prediction path consumes (one column per retained unary digit, in
    :attr:`~repro.core.unary_tree.UnaryDecisionTree.comparators` order).  The
    result has shape ``(n_digits, ceil(n_samples / 64))``: sample ``s`` of
    digit column ``c`` lives in bit ``s % 64`` (little-endian, LSB first) of
    word ``packed[c, s // 64]``, so 64 samples advance through a bitwise op
    per machine word.  Padding bits of the final word are zero; consumers
    that complement words (negated literals) must mask them back out with
    :func:`packed_tail_mask`.

    An empty batch packs into zero words per digit.
    """
    digits = np.asarray(digits)
    if digits.ndim != 2:
        raise ValueError("expected a 2-D (n_samples, n_digits) digit matrix")
    if digits.dtype != bool:
        digits = digits.astype(bool)
    n_samples, n_digits = digits.shape
    n_words = -(-n_samples // WORD_BITS)  # ceil division
    word_bytes = WORD_BITS // 8
    columns = digits.T
    if not columns.flags.c_contiguous:
        # packbits over a strided view is an order of magnitude slower than
        # one explicit transpose copy (and can return rows we could not
        # reinterpret as words in place), so normalize the layout first.
        # The hot path -- digit matrices built by broadcast comparison,
        # which numpy lays out Fortran-style -- transposes to a contiguous
        # view and skips the copy entirely.
        columns = np.ascontiguousarray(columns)
    # packbits pads each row to whole bytes with zeros; pad on up to a whole
    # word so the uint8 buffer reinterprets as little-endian uint64 words.
    packed8 = np.packbits(columns, axis=1, bitorder="little")
    if packed8.shape[1] != n_words * word_bytes:
        padded = np.zeros((n_digits, n_words * word_bytes), dtype=np.uint8)
        padded[:, : packed8.shape[1]] = packed8
        packed8 = padded
    elif not packed8.flags.c_contiguous:  # pragma: no cover - defensive
        packed8 = np.ascontiguousarray(packed8)
    return packed8.view(np.uint64)


def unpack_digit_matrix(packed: np.ndarray, n_samples: int) -> np.ndarray:
    """Inverse of :func:`pack_digit_matrix` (drops the padding bits)."""
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ValueError("expected a 2-D (n_digits, n_words) packed matrix")
    if n_samples > packed.shape[1] * WORD_BITS:
        raise ValueError(
            f"{n_samples} samples do not fit in {packed.shape[1]} packed words"
        )
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :n_samples].T.astype(bool)


def packed_tail_mask(n_samples: int) -> np.uint64:
    """Valid-lane mask of the *last* packed word of an ``n_samples`` batch.

    All-ones when the batch fills its final word exactly; otherwise only the
    low ``n_samples % 64`` bits are set.  ANDing complemented words with this
    mask keeps the zero padding of :func:`pack_digit_matrix` from surfacing
    as phantom samples.
    """
    remainder = n_samples % WORD_BITS
    if remainder == 0:
        return np.uint64(0xFFFF_FFFF_FFFF_FFFF)
    return np.uint64((1 << remainder) - 1)


def threshold_to_digit(threshold: float, resolution_bits: int) -> int:
    """Map a normalized threshold to the unary digit implementing ``x >= threshold``.

    The trained thresholds of the quantized decision trees always lie on the
    ADC grid ``k / 2**N``; the digit index is simply ``round(threshold * 2**N)``
    clamped to the valid comparator range ``[1, 2**N - 1]``.
    """
    if resolution_bits < 1:
        raise ValueError("resolution must be at least 1 bit")
    n_levels = 2 ** resolution_bits
    digit = int(round(float(threshold) * n_levels))
    return min(max(digit, 1), n_levels - 1)
