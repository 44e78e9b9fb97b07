"""Inducing-point (Nystrom / subset-of-regressors) GP backend.

For the very-long-history regime an exact GP pays O(n^2) per decision
and O(n^3) per refit, yet tens of thousands of observations cover the
configuration space densely: what limits accuracy is the *global* shape
of the surface, not every individual row.  :class:`SparseGP` compresses the
history through ``m`` inducing inputs Z and keeps only the m x m
sufficient statistics

    A = K_zn Lambda^-1 K_nz          (m x m)
    b = K_zn Lambda^-1 y~            (m)

where ``Lambda`` is the per-row noise (base plus heteroscedastic extra)
and ``y~`` the standardized targets.  Every statistic is a sum over
rows, so absorbing k new observations is a flat O(m^2 k) accumulation —
per-decision cost never grows with the history.  Target
re-standardization is exact at any time because ``b`` is kept in raw
pieces (``K_zn Lambda^-1 y`` and ``K_zn Lambda^-1 1``).

Prediction uses the deterministic-training-conditional (DTC) posterior

    mean(x*) = k*z (K_zz + A)^-1 b
    var(x*)  = k** - k*z K_zz^-1 k z* + k*z (K_zz + A)^-1 k z* + noise

whose variance — unlike plain SoR — does not collapse far from the
inducing set, which matters for expected improvement.

The inducing set is an evenly-strided subsample of the history,
re-selected (and the statistics rebuilt, O(n m^2)) whenever the history
doubles — amortized O(m^2) per row.  The backend is point-estimate only
(``supports_mcmc = False``): the engine skips hyper-parameter sampling
and uses plain EI, the same degraded-gracefully path it already takes
when no MCMC stack exists.
"""

from __future__ import annotations

import numpy as np

from repro.bo.acquisition import expected_improvement
from repro.bo.kernels import Matern52Kernel, RBFKernel
from repro.surrogate.incremental import chol_lower, chol_solve, solve_lower

_JITTER = 1e-6


class SparseGP:
    """Bounded-memory GP over ``n_inducing`` Nystrom points.

    ``reselect_factor`` controls how often the inducing set chases the
    growing history: a rebuild triggers when the history exceeds that
    multiple of its size at the last selection.
    """

    supports_mcmc = False

    def __init__(
        self,
        kernel: RBFKernel | Matern52Kernel,
        noise_variance: float = 1e-4,
        n_inducing: int = 128,
        reselect_factor: float = 2.0,
    ):
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        if n_inducing < 2:
            raise ValueError("n_inducing must be at least 2")
        if reselect_factor <= 1.0:
            raise ValueError("reselect_factor must exceed 1")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self.n_inducing = int(n_inducing)
        self.reselect_factor = float(reselect_factor)
        self._hist_x: np.ndarray | None = None
        self._hist_y: np.ndarray | None = None
        self._hist_extra: np.ndarray | None = None
        self._z: np.ndarray | None = None
        self._n_at_select = 0
        self._a: np.ndarray | None = None
        self._b_y: np.ndarray | None = None
        self._b_1: np.ndarray | None = None
        self._kzz_chol: np.ndarray | None = None
        self._post_chol: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._z is not None

    @property
    def n_samples(self) -> int:
        """Total absorbed observations (memory stays O(m^2) regardless)."""
        return 0 if self._hist_y is None else int(self._hist_y.shape[0])

    n_total = n_samples

    @property
    def target_mean(self) -> float:
        return self._y_mean

    @property
    def target_std(self) -> float:
        return self._y_std

    @property
    def n_hyperparameters(self) -> int:
        return self.kernel.n_params + 1

    def get_theta(self) -> np.ndarray:
        return np.concatenate((self.kernel.get_theta(), [np.log(self.noise_variance)]))

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_hyperparameters,):
            raise ValueError(f"expected {self.n_hyperparameters} hyper-parameters")
        self.kernel.set_theta(theta[:-1])
        self.noise_variance = float(np.exp(theta[-1]))
        if self.is_fitted:
            # Every statistic involves the kernel and the noise; rebuild.
            self._rebuild()

    # ------------------------------------------------------------------
    def _noise_rows(self, extra: np.ndarray | None, n: int) -> np.ndarray:
        lam = np.full(n, self.noise_variance)
        if extra is not None:
            lam = lam + extra
        return lam

    def _standardize(self) -> None:
        self._y_mean = float(np.mean(self._hist_y))
        self._y_std = float(np.std(self._hist_y))
        if self._y_std < 1e-12:
            self._y_std = 1.0

    def _select_inducing(self) -> None:
        n = self._hist_y.shape[0]
        idx = np.unique(np.linspace(0, n - 1, min(self.n_inducing, n)).round().astype(int))
        self._z = self._hist_x[idx]
        self._n_at_select = n

    def _rebuild(self) -> None:
        """Recompute A, b and factors from the full history, O(n m^2)."""
        x, y = self._hist_x, self._hist_y
        lam = self._noise_rows(self._hist_extra, y.shape[0])
        k_zn = self.kernel(self._z, x)  # (m, n)
        weighted = k_zn / lam
        self._a = weighted @ k_zn.T
        self._b_y = weighted @ y
        self._b_1 = np.sum(weighted, axis=1)
        self._standardize()
        self._refactor()

    def _refactor(self) -> None:
        m = self._z.shape[0]
        k_zz = self.kernel(self._z, self._z)
        k_zz[np.diag_indices_from(k_zz)] += _JITTER
        self._kzz_chol = chol_lower(k_zz)
        post = k_zz + self._a
        post = (post + post.T) / 2.0
        post[np.diag_indices_from(post)] += _JITTER
        self._post_chol = chol_lower(post)

    # ------------------------------------------------------------------
    def fit(self, x, y, extra_noise=None) -> "SparseGP":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        self._hist_x = x
        self._hist_y = y
        self._hist_extra = (
            None if extra_noise is None else np.asarray(extra_noise, dtype=float).ravel()
        )
        self._select_inducing()
        self._rebuild()
        return self

    def extend(self, x, y, extra_noise=None) -> "SparseGP":
        """Absorb observations at flat O(m^2 k) — never grows with n.

        All updates rebind arrays (copy-on-write), so shallow copies can
        extend independently.
        """
        if not self.is_fitted:
            return self.fit(x, y, extra_noise=extra_noise)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        extra = None if extra_noise is None else np.asarray(extra_noise, dtype=float).ravel()
        self._hist_x = np.vstack([self._hist_x, x])
        if self._hist_extra is not None or extra is not None:
            self._hist_extra = np.concatenate([
                self._hist_extra if self._hist_extra is not None else np.zeros(self._hist_y.shape[0]),
                extra if extra is not None else np.zeros(y.shape[0]),
            ])
        self._hist_y = np.concatenate([self._hist_y, y])
        if self._hist_y.shape[0] >= self.reselect_factor * max(self._n_at_select, 1):
            self._select_inducing()
            self._rebuild()
            return self
        lam = self._noise_rows(extra, y.shape[0])
        k_zk = self.kernel(self._z, x)  # (m, k)
        weighted = k_zk / lam
        self._a = self._a + weighted @ k_zk.T
        self._b_y = self._b_y + weighted @ y
        self._b_1 = self._b_1 + np.sum(weighted, axis=1)
        self._standardize()
        self._refactor()
        return self

    def predict(self, x_star: np.ndarray, return_std: bool = True):
        if not self.is_fitted:
            raise RuntimeError("predict() called before fit()")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        k_sz = self.kernel(self._z, x_star)  # (m, q)
        b_std = (self._b_y - self._y_mean * self._b_1) / self._y_std
        mean = k_sz.T @ chol_solve(self._post_chol, b_std)
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean
        q = solve_lower(self._kzz_chol, k_sz)
        t = chol_solve(self._post_chol, k_sz)
        var = (
            self.kernel.diag(x_star)
            + self.noise_variance
            - np.sum(q * q, axis=0)
            + np.sum(k_sz * t, axis=0)
        )
        std = np.sqrt(np.maximum(var, 1e-12)) * self._y_std
        return mean, std

    def acquisition(self, x_star: np.ndarray, best: float, xi: float = 0.0) -> np.ndarray:
        mean, std = self.predict(x_star)
        return expected_improvement(mean, std, best, xi=xi)

    def shallow_copy(self) -> "SparseGP":
        """A cheap copy safe to extend independently (liar surrogates)."""
        copy = SparseGP(
            self.kernel.clone(),
            self.noise_variance,
            n_inducing=self.n_inducing,
            reselect_factor=self.reselect_factor,
        )
        copy._hist_x = self._hist_x
        copy._hist_y = self._hist_y
        copy._hist_extra = self._hist_extra
        copy._z = self._z
        copy._n_at_select = self._n_at_select
        copy._a = self._a
        copy._b_y = self._b_y
        copy._b_1 = self._b_1
        copy._kzz_chol = self._kzz_chol
        copy._post_chol = self._post_chol
        copy._y_mean = self._y_mean
        copy._y_std = self._y_std
        return copy
