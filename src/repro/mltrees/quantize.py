"""Fixed-point quantization of normalized features.

The paper fixes the input precision to 4 bits ("since this is the value
delivered close to floating-point accuracy for all datasets").  Features are
normalized to ``[0, 1]`` (Q0.N fixed point) and digitized to integer levels by
the per-feature flash ADC channel; the same quantization is applied during
training so the trained thresholds land on the ADC grid.
"""

from __future__ import annotations

import numpy as np

from repro.adc.thermometer import quantize_array_to_levels


def quantize_dataset(X: np.ndarray, resolution_bits: int = 4) -> np.ndarray:
    """Quantize a normalized feature matrix to integer ADC levels.

    Parameters
    ----------
    X:
        Feature matrix with values in ``[0, 1]`` (values outside the range
        are clipped, mirroring ADC saturation).
    resolution_bits:
        ADC resolution N; output levels lie in ``[0, 2**N - 1]``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    return quantize_array_to_levels(X, resolution_bits)


def level_to_value(level: int | np.ndarray, resolution_bits: int = 4):
    """Normalized value corresponding to a quantized level (``level / 2**N``)."""
    n_levels = 2 ** resolution_bits
    return np.asarray(level, dtype=float) / n_levels if isinstance(level, np.ndarray) else level / n_levels


def truncated_threshold(level: int, bits: int, resolution_bits: int) -> int:
    """Threshold ``level`` of a ``resolution_bits`` input read at ``bits`` MSBs.

    Keeping only the ``bits`` most significant bits of an input (``bits``
    clamped to ``[1, resolution_bits]``) leaves its comparators the coarser
    grid of step ``2**s``, ``s = resolution_bits - bits``, and snaps the
    threshold to ``max(level >> s, 1) << s``: never below one step, so a
    split never degenerates to always-true.  This is the one truncation
    rule of baseline [7]'s precision scaling -- the approximated tree, its
    comparator netlist and its precision search all apply it.
    """
    shift = resolution_bits - min(max(int(bits), 1), resolution_bits)
    return max(level >> shift, 1) << shift


def quantization_error(X: np.ndarray, resolution_bits: int = 4) -> float:
    """Mean absolute quantization error introduced by the ADC grid.

    Useful for precision-selection studies (the baseline [7] scales per-input
    precision and needs to reason about the induced error).
    """
    X = np.asarray(X, dtype=float)
    levels = quantize_dataset(X, resolution_bits)
    reconstructed = levels / (2 ** resolution_bits)
    return float(np.mean(np.abs(np.clip(X, 0.0, 1.0) - reconstructed)))
