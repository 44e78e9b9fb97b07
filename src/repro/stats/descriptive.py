"""Descriptive statistics used throughout the LOCAT pipeline.

QCSA (paper section 3.2) ranks queries by the coefficient of variation of
their execution times across random configurations; equation (3) in the
paper uses the population standard deviation (divide by N), so that is the
default here.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _as_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("expected a non-empty sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sequence contains non-finite values")
    return arr


def mean(values: Sequence[float] | np.ndarray) -> float:
    """Arithmetic mean of a non-empty 1-D sequence."""
    return float(np.mean(_as_array(values)))


def variance(values: Sequence[float] | np.ndarray, ddof: int = 0) -> float:
    """Variance of a non-empty 1-D sequence.

    ``ddof=0`` gives the population variance used by the paper's equation
    (3); ``ddof=1`` gives the sample variance.
    """
    arr = _as_array(values)
    if arr.size <= ddof:
        raise ValueError(f"need more than {ddof} values for ddof={ddof}")
    return float(np.var(arr, ddof=ddof))


def standard_deviation(values: Sequence[float] | np.ndarray, ddof: int = 0) -> float:
    """Standard deviation (population by default, matching equation (3))."""
    return float(np.sqrt(variance(values, ddof=ddof)))


def coefficient_of_variation(values: Sequence[float] | np.ndarray, ddof: int = 0) -> float:
    """Coefficient of variation: standard deviation divided by mean.

    This is the configuration-sensitivity measure of QCSA (equation (3)).
    Raises :class:`ValueError` when the mean is zero, because CV is
    undefined there (execution times are strictly positive in practice).
    """
    arr = _as_array(values)
    avg = float(np.mean(arr))
    if avg == 0.0:  # repro: allow[float-eq] -- guards the division, not a tolerance
        raise ValueError("coefficient of variation undefined for zero mean")
    return standard_deviation(arr, ddof=ddof) / abs(avg)
