"""The surrogate engine: incremental GPs and vectorized EI-MCMC.

This layer sits between :mod:`repro.bo` (kernels, GP regression, slice
sampling) and :mod:`repro.core` (DAGP, the BO loop).  It packages the
mechanisms that keep the optimizer time of a long tuning session — and
of a long-lived service tenant — from being dominated by O(n^3) refits:

* :class:`~repro.surrogate.protocol.Surrogate` — the structural
  interface (``fit`` / ``extend`` / ``predict`` / ``acquisition``) that
  :class:`~repro.bo.gp.GaussianProcess` and
  :class:`~repro.core.dagp.DatasizeAwareGP` implement and that the BO
  loop, LOCAT, and the GP-backed baselines consume.
* :func:`~repro.surrogate.incremental.cholesky_append` and
  :class:`~repro.surrogate.incremental.LMLCache` — the exact rank-k
  Cholesky update behind ``extend``, and the bounded LRU per-theta memo
  behind the slice sampler's log-marginal-likelihood evaluations.
* :class:`~repro.surrogate.stack.ModelStack` — the ``n_mcmc`` posterior
  hyper-parameter samples held as stacked ``(alpha, K^-1)`` state and
  evaluated in one vectorized pass, replacing the per-clone Python loop.
* A scalable backend behind the same protocol:
  :class:`~repro.surrogate.sparse.SparseGP` (Nystrom inducing points,
  O(m^2) per decision), selected per history size by
  :class:`~repro.surrogate.policy.BackendPolicy`.
"""

from repro.surrogate.incremental import LMLCache, cholesky_append
from repro.surrogate.policy import BackendPolicy
from repro.surrogate.protocol import Surrogate
from repro.surrogate.stack import ModelStack


def __getattr__(name: str):
    # The backend class lives above repro.bo (it wraps a
    # GaussianProcess) while repro.bo.gp imports this package's
    # incremental primitives — resolve it lazily to keep the package
    # importable from either direction.
    if name == "SparseGP":
        from repro.surrogate.sparse import SparseGP

        return SparseGP
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BackendPolicy",
    "LMLCache",
    "ModelStack",
    "SparseGP",
    "Surrogate",
    "cholesky_append",
]
