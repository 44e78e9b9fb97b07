"""Exact incremental linear algebra for Gaussian process surrogates.

Small primitives with an outsized effect on optimizer time:

* :func:`chol_lower` and :func:`chol_solve` — LAPACK ``dpotrf`` /
  ``dpotrs`` called directly, with the arguments
  ``scipy.linalg.cholesky`` / ``cho_factor`` / ``cho_solve`` pass (so
  the factors and solutions are bit-identical to theirs), minus the
  scipy wrappers' per-call batch and validation layers: about 8 us per
  call, which at n = 30-60 is as much as the factorization itself.
* :func:`add_noise` — observation noise onto a covariance diagonal,
  through a strided view instead of fancy indexing.
* :func:`cholesky_append` — the block (rank-k) Cholesky update.  Given
  the factor of the current training covariance, appending k
  observations costs O(n^2 k) instead of the O(n^3) refactorization,
  and the result is *algebraically identical* to factorizing the
  extended matrix from scratch (the block formula is exact; only
  floating-point round-off differs).
* :class:`LMLCache` — a bounded per-theta LRU memo for
  log-marginal-likelihood values.  Univariate slice sampling
  re-evaluates the posterior at the current state once per coordinate
  update (plus every step-out bound it revisits); each of those
  evaluations is a covariance assembly and a Cholesky factorization.
  Memoizing by the exact hyper-parameter bytes returns the identical
  float for identical states, so the sampler's accept/reject decisions
  — and therefore its RNG draw sequence — are unchanged.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs


def chol_lower(a: np.ndarray, clean: bool = True) -> np.ndarray:
    """Lower Cholesky factor of the symmetric positive-definite ``a``.

    ``a`` is not modified.  With ``clean=False`` the strict upper
    triangle of the result keeps ``a``'s entries, as with
    ``scipy.linalg.cho_factor``; only the lower triangle is the factor.
    Raises :class:`numpy.linalg.LinAlgError` when ``a`` is not positive
    definite — the contract the slice sampler's step-out relies on.
    """
    c, info = dpotrf(a, lower=1, clean=clean, overwrite_a=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c


def chol_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the lower Cholesky factor of ``A``.

    ``b`` is a vector or a matrix of right-hand sides and is not
    modified; only the lower triangle of ``lower`` is read.
    """
    x, info = dpotrs(lower, b, lower=1, overwrite_b=0)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


#: Added to every observation-noise variance to keep the covariance
#: numerically positive definite.
JITTER = 1e-8


def add_noise(k: np.ndarray, noise: float, extra: np.ndarray | None = None) -> np.ndarray:
    """Add ``noise + JITTER``, then the per-row ``extra``, to ``k``'s diagonal.

    In place on the C-contiguous square ``k``, which is returned.  The
    additions, and their order, are those of
    ``k[np.diag_indices_from(k)] += ...``, through a flat strided view
    instead of two index arrays.
    """
    if not k.flags.c_contiguous:
        raise ValueError("add_noise() needs a C-contiguous matrix")
    diag = k.reshape(-1)[:: k.shape[0] + 1]
    diag += noise + JITTER
    if extra is not None:
        diag += extra
    return k


def cholesky_append(
    lower: np.ndarray, k_cross: np.ndarray, k_new: np.ndarray
) -> np.ndarray:
    """Extend a lower Cholesky factor by a block of new rows/columns.

    With ``lower @ lower.T == K`` (n x n), returns the lower factor of
    the extended covariance ``[[K, B], [B.T, C]]`` where ``B`` is
    ``k_cross`` (n x k, covariance between old and new inputs) and ``C``
    is ``k_new`` (k x k, covariance among the new inputs, observation
    noise already on its diagonal).

    The update solves one triangular system (O(n^2 k)) and factorizes
    the k x k Schur complement; it raises
    :class:`numpy.linalg.LinAlgError` if the extended matrix is not
    positive definite (same contract as a from-scratch factorization).
    """
    lower = np.asarray(lower, dtype=float)
    k_cross = np.atleast_2d(np.asarray(k_cross, dtype=float))
    k_new = np.atleast_2d(np.asarray(k_new, dtype=float))
    n = lower.shape[0]
    k = k_new.shape[0]
    if lower.shape != (n, n):
        raise ValueError("lower must be square")
    if k_cross.shape != (n, k):
        raise ValueError(f"k_cross must be ({n}, {k}), got {k_cross.shape}")
    if k_new.shape != (k, k):
        raise ValueError("k_new must be square and match k_cross columns")

    out = np.zeros((n + k, n + k))
    out[:n, :n] = np.tril(lower)
    z = solve_triangular(lower, k_cross, lower=True, check_finite=False)  # (n, k)
    out[n:, :n] = z.T
    schur = k_new - z.T @ z
    # A non-PD Schur complement raises numpy.linalg.LinAlgError, the
    # same contract as a from-scratch factorization.
    out[n:, n:] = chol_lower(schur)
    return out


class LMLCache:
    """Bounded LRU memo of ``theta -> log marginal likelihood``.

    Keys are the exact bytes of the hyper-parameter vector: two states
    are "the same" only when they are bit-identical, which is exactly
    the case slice sampling produces (it carries the accepted vector
    forward unchanged).  The cache MUST be cleared whenever the training
    data changes (``fit`` / ``extend``) — the value is a function of
    (theta, data), and only theta is in the key.

    Eviction is least-recently-used, one entry at a time, so a
    long-lived tenant whose chain revisits a small working set of states
    keeps those states hot instead of losing the whole memo at the cap.
    ``hits`` / ``misses`` / ``evictions`` persist across ``clear()`` so
    a benchmark can report totals over a whole session.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._values: dict[bytes, float] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._values)

    @staticmethod
    def _key(theta: np.ndarray) -> bytes:
        return np.ascontiguousarray(theta, dtype=float).tobytes()

    def get(self, theta: np.ndarray) -> float | None:
        key = self._key(theta)
        value = self._values.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            # Dicts preserve insertion order; re-inserting marks the
            # entry most-recently-used.
            del self._values[key]
            self._values[key] = value
        return value

    def put(self, theta: np.ndarray, value: float) -> None:
        key = self._key(theta)
        if key not in self._values and len(self._values) >= self.maxsize:
            oldest = next(iter(self._values))
            del self._values[oldest]
            self.evictions += 1
        else:
            self._values.pop(key, None)
        self._values[key] = float(value)

    def clear(self) -> None:
        self._values.clear()

    def stats(self) -> dict[str, int]:
        """Lifetime counters plus current occupancy, for reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._values),
            "maxsize": self.maxsize,
        }
