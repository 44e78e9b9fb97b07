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
The threshold is configurable per tenant; the default keeps a tuning
session (tens of evaluations) on the exact backend while a long-lived
service tenant transitions automatically as its history grows.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Accepted values for the ``surrogate_backend`` setting, everywhere it
#: appears (DAGP, BOLoop, LOCAT, the service tenant key, the CLI).
#: ``auto`` defers to a :class:`BackendPolicy`; the other two force
#: one backend unconditionally.
SURROGATE_BACKENDS = ("auto", "exact", "sparse")


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

    def select(self, n_observations: int) -> str:
        """The backend this policy prescribes for a history of size n."""
        return "exact" if n_observations <= self.n_exact else "sparse"


def validate_backend(backend: str) -> str:
    """Normalize and validate a ``surrogate_backend`` setting value."""
    if backend not in SURROGATE_BACKENDS:
        raise ValueError(
            f"surrogate_backend must be one of {SURROGATE_BACKENDS}, got {backend!r}"
        )
    return backend
