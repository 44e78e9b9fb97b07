"""Rank and linear correlation coefficients.

CPS (paper section 3.3.2) filters configuration parameters whose Spearman
correlation against execution time has absolute value below 0.2.  The
implementations here are self-contained (average-rank ties, Pearson on
ranks) and are cross-checked against :mod:`scipy.stats` in the test suite.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def rankdata(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Ranks of ``values`` starting at 1, with ties given average ranks.

    Matches the behaviour of ``scipy.stats.rankdata(method="average")``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        return np.empty(0, dtype=float)
    order = np.argsort(arr, kind="mergesort")
    ranks = np.empty(arr.size, dtype=float)
    sorted_vals = arr[order]
    i = 0
    while i < arr.size:
        j = i
        while j + 1 < arr.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        # Ranks are 1-based; tied values share the average of their ranks.
        avg_rank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = avg_rank
        i = j + 1
    return ranks


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Pearson linear correlation coefficient.

    Returns 0.0 when either input is constant (zero variance), which is the
    convenient convention for feature filtering: a constant parameter
    carries no information about execution time.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-D sequences of equal length")
    if xa.size < 2:
        raise ValueError("need at least two observations")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = float(np.sqrt(np.sum(xc * xc) * np.sum(yc * yc)))
    if denom == 0.0:  # repro: allow[float-eq] -- a constant input has no correlation
        return 0.0
    return float(np.clip(np.sum(xc * yc) / denom, -1.0, 1.0))


def spearman(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Spearman rank correlation coefficient (Pearson on average ranks)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-D sequences of equal length")
    if xa.size < 2:
        raise ValueError("need at least two observations")
    return pearson(rankdata(xa), rankdata(ya))
