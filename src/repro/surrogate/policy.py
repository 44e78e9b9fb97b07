"""Backend selection policy for the surrogate engine.

Two backends implement the same ``Surrogate`` lifecycle with different
cost/fidelity trade-offs:

========  ==============================  ======================
backend   per-decision cost               posterior
========  ==============================  ======================
exact     O(n^2) extend, O(n^3) refit     exact
sparse    O(m^2), m = inducing points     Nystrom/DTC approximation
========  ==============================  ======================

:class:`BackendPolicy` picks between them by history size: exact while
the history is small enough that exact refits stay cheap, sparse above.
There is no backend setting: every
:class:`~repro.core.dagp.DatasizeAwareGP` resolves its backend through
its policy at fit time and refits into the sparse backend when an
extend crosses the threshold.  The default keeps a tuning session (tens
of evaluations) on the exact backend while a long-lived service tenant
transitions automatically as its history grows.  Passing a policy is
how a caller forces either side: :meth:`BackendPolicy.forced` builds
the policy that keeps every history of two or more rows on one backend.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class BackendPolicy:
    """Size threshold and the sparse backend's capacity.

    ``select`` resolves a history size to a concrete backend: exact for
    ``n <= n_exact``, sparse above.  ``n_inducing`` travels with the
    policy so a tenant's whole scaling behavior is one configuration
    object.
    """

    n_exact: int = 512
    n_inducing: int = 128

    def __post_init__(self):
        if self.n_exact < 1:
            raise ValueError("n_exact must be positive")
        if self.n_inducing < 2:
            raise ValueError("n_inducing must be at least 2")

    @classmethod
    def forced(cls, backend: str, n_inducing: int | None = None) -> "BackendPolicy":
        """A policy that puts every history of two or more rows on
        ``backend`` (``"exact"`` or ``"sparse"``)."""
        if backend not in ("exact", "sparse"):
            raise ValueError(f"unknown backend {backend!r}")
        return cls(
            n_exact=sys.maxsize if backend == "exact" else 1,
            n_inducing=cls.n_inducing if n_inducing is None else n_inducing,
        )

    def select(self, n_observations: int) -> str:
        """The backend this policy prescribes for a history of size n."""
        return "exact" if n_observations <= self.n_exact else "sparse"

