"""The surrogate engine: incremental GPs and vectorized EI-MCMC.

This layer sits between :mod:`repro.bo` (kernels, GP regression, slice
sampling) and :mod:`repro.core` (DAGP, the BO loop).  It packages the
mechanisms that keep the optimizer time of a long tuning session — and
of a long-lived service tenant — from being dominated by O(n^3) refits:

* :func:`~repro.surrogate.incremental.cholesky_append` and
  :class:`~repro.surrogate.incremental.LMLCache` — the exact rank-k
  Cholesky update behind ``extend``, and the bounded LRU per-theta memo
  behind the slice sampler's log-marginal-likelihood evaluations; the
  same module's ``chol_lower`` / ``chol_solve`` / ``solve_lower`` call
  LAPACK directly for every factorization and solve of the exact GP
  and the stack.
* :class:`~repro.surrogate.stack.ModelStack` — the ``n_mcmc`` posterior
  hyper-parameter samples held as stacked ``(alpha, K^-1)`` state, built
  once per change of the training set and evaluated in one vectorized
  pass, replacing the per-clone Python loop.
"""

from repro.surrogate.incremental import LMLCache, cholesky_append
from repro.surrogate.stack import ModelStack

__all__ = [
    "LMLCache",
    "ModelStack",
    "cholesky_append",
]
