"""Gaussian process regression (paper equations (8)-(10)).

The GP models the (standardized) objective with a zero mean and a chosen
covariance kernel plus observation noise.  Prediction follows equation
(10): posterior mean ``K*^T (K + s^2 I)^-1 y`` and covariance
``K** - K*^T (K + s^2 I)^-1 K*`` computed via Cholesky factorization.

The class implements the surrogate-engine lifecycle
(:class:`repro.surrogate.protocol.Surrogate`): besides ``fit`` /
``predict`` it supports ``extend`` — an algebraically exact O(n^2 k)
rank-k append of new observations (the covariance factor grows by the
block-Cholesky formula, targets are re-standardized, and only the
O(n^2) ``alpha`` solve is redone) — and a memoized, *non-mutating*
``log_marginal_likelihood(theta)``: evaluating the LML at a candidate
hyper-parameter vector builds a throwaway factorization instead of
refactorizing the model twice (set + restore), and repeated evaluations
at bit-identical thetas (the common case inside univariate slice
sampling) return the cached float.  Within one slice-sampling update
only one coordinate of theta moves, so ``log_marginal_likelihood(theta,
along=j)`` assembles the covariance from a base built once for that
coordinate: one matrix update and the kernel formula per evaluation
instead of a full ARD kernel build.

Every factorization and solve goes through
:func:`~repro.surrogate.incremental.chol_lower` and
:func:`~repro.surrogate.incremental.chol_solve`, which call LAPACK
``dpotrf`` / ``dpotrs`` with the arguments ``scipy.linalg.cholesky``,
``cho_factor`` and ``cho_solve`` pass — the same floats, without scipy's
per-call wrapper cost — and noise is added to a covariance's diagonal
through a strided view.
"""

from __future__ import annotations

import numpy as np

from repro.bo.acquisition import expected_improvement
from repro.bo.kernels import Matern52Kernel, RBFKernel, ard_shape, scaled_rows, scaled_sq_dist
from repro.surrogate.incremental import (
    LMLCache,
    add_noise,
    chol_lower,
    chol_solve,
    cholesky_append,
)

_LOG_2PI = float(np.log(2.0 * np.pi))


class GaussianProcess:
    """GP regressor with internal target standardization.

    ``noise_variance`` is expressed in *standardized* target units; the
    default 1e-4 matches a few-percent measurement noise on execution
    times.  Hyper-parameters live in the kernel plus ``log_noise``, and
    the combined vector used by MCMC is
    ``[kernel theta..., log noise_variance]``.

    ``fit`` optionally takes per-observation *extra* noise variances
    (also in standardized units), added on top of ``noise_variance`` on
    the covariance diagonal.  This is the heteroscedastic hook the
    transfer prior uses: low-fidelity observations borrowed from another
    application carry inflated noise so they shape the posterior without
    ever outvoting the target's own data.  The extra noise is training
    data, not a hyper-parameter — MCMC never resamples it.
    """

    def __init__(self, kernel: RBFKernel | Matern52Kernel, noise_variance: float = 1e-4):
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        self.kernel = kernel
        self.noise_variance = float(noise_variance)
        self._x: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._extra_noise: np.ndarray | None = None
        self._chol_lower: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._lml_cache = LMLCache()
        # ``(key, base)`` of the last ``log_marginal_likelihood(along=)``
        # base; like the LML memo, a function of the training data.
        self._along_base: tuple | None = None

    # ------------------------------------------------------------------
    # Fitting and prediction
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._x is not None

    @property
    def n_samples(self) -> int:
        return 0 if self._x is None else self._x.shape[0]

    # Read-only views for the engine (ModelStack builds per-sample
    # factorizations over the same training set).
    @property
    def training_inputs(self) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("GP is not fitted")
        return self._x

    @property
    def standardized_targets(self) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("GP is not fitted")
        return self._y

    @property
    def target_mean(self) -> float:
        return self._y_mean

    @property
    def target_std(self) -> float:
        return self._y_std

    @property
    def extra_noise_vector(self) -> np.ndarray | None:
        return self._extra_noise

    @staticmethod
    def _validate_extra_noise(extra_noise, n_rows: int) -> np.ndarray | None:
        if extra_noise is None:
            return None
        extra_noise = np.asarray(extra_noise, dtype=float).ravel()
        if extra_noise.shape[0] != n_rows:
            raise ValueError("extra_noise must have one value per observation")
        if np.any(extra_noise < 0) or not np.all(np.isfinite(extra_noise)):
            raise ValueError("extra_noise must be finite and non-negative")
        return extra_noise

    def _validate_xy(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of rows")
        if x.shape[1] != self.kernel.dim:
            raise ValueError(f"kernel expects dim {self.kernel.dim}, got {x.shape[1]}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("training data contains non-finite values")
        return x, y

    def _standardize(self, y_raw: np.ndarray) -> None:
        self._y_raw = y_raw
        self._y_mean = float(np.mean(y_raw))
        self._y_std = float(np.std(y_raw))
        if self._y_std < 1e-12:
            self._y_std = 1.0
        self._y = (y_raw - self._y_mean) / self._y_std

    def fit(
        self, x: np.ndarray, y: np.ndarray, extra_noise: np.ndarray | None = None
    ) -> "GaussianProcess":
        """Fit on (x, y); ``extra_noise`` is optional per-row additional
        noise variance (standardized units, non-negative) added to the
        covariance diagonal — zero rows behave exactly as before."""
        x, y = self._validate_xy(x, y)
        self._extra_noise = self._validate_extra_noise(extra_noise, y.shape[0])
        self._x = x
        self._standardize(y)
        self._refactor()
        self._forget_lml_memos()
        return self

    def extend(
        self, x: np.ndarray, y: np.ndarray, extra_noise: np.ndarray | None = None
    ) -> "GaussianProcess":
        """Append observations without a from-scratch refit.

        Algebraically exact: the covariance factor grows by the block
        (rank-k) Cholesky update at the current hyper-parameters, the
        target standardization is recomputed over the concatenated
        targets (the covariance is target-free, so only the O(n^2)
        ``alpha`` solve depends on it), and the posterior equals a
        ``fit`` on the concatenated data up to floating-point round-off.
        Cost: O(n^2 k) for k new rows instead of O((n+k)^3).

        On an unfitted model this simply delegates to :meth:`fit`.
        """
        if not self.is_fitted:
            return self.fit(x, y, extra_noise=extra_noise)
        x, y = self._validate_xy(x, y)
        extra_new = self._validate_extra_noise(extra_noise, y.shape[0])
        if self._extra_noise is None and extra_new is None:
            extra_all = None
        else:
            extra_all = np.concatenate([
                self._extra_noise if self._extra_noise is not None else np.zeros(self.n_samples),
                extra_new if extra_new is not None else np.zeros(y.shape[0]),
            ])

        k_cross = self.kernel(self._x, x)
        k_new = add_noise(self.kernel(x, x), self.noise_variance, extra_new)
        self._chol_lower = cholesky_append(self._chol_lower, k_cross, k_new)
        self._x = np.vstack([self._x, x])
        self._extra_noise = extra_all
        self._standardize(np.concatenate([self._y_raw, y]))
        self._alpha = chol_solve(self._chol_lower, self._y)
        self._forget_lml_memos()
        return self

    def _forget_lml_memos(self) -> None:
        """Drop every memo keyed by theta alone: the training data changed."""
        self._lml_cache.clear()
        self._along_base = None

    def lml_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters of the per-theta LML memo."""
        return self._lml_cache.stats()

    def _refactor(self) -> None:
        """Recompute the Cholesky factor for the current hyper-parameters."""
        assert self._x is not None and self._y is not None
        k = add_noise(self.kernel(self._x, self._x), self.noise_variance, self._extra_noise)
        self._chol_lower = chol_lower(k)
        self._alpha = chol_solve(self._chol_lower, self._y)

    def predict(self, x_star: np.ndarray, return_std: bool = True):
        """Posterior mean (and optionally standard deviation) at ``x_star``.

        Outputs are de-standardized back to raw target units.
        """
        if not self.is_fitted:
            raise RuntimeError("predict() called before fit()")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        k_star = self.kernel(self._x, x_star)
        mean = k_star.T @ self._alpha
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = chol_solve(self._chol_lower, k_star)
        var = self.kernel.diag(x_star) + self.noise_variance - np.sum(k_star * v, axis=0)
        std = np.sqrt(np.maximum(var, 1e-12)) * self._y_std
        return mean, std

    def acquisition(self, x_star: np.ndarray, best: float, xi: float = 0.0) -> np.ndarray:
        """Expected improvement (to maximize) against the incumbent ``best``."""
        mean, std = self.predict(x_star)
        return expected_improvement(mean, std, best, xi=xi)

    # ------------------------------------------------------------------
    # Hyper-parameters (for EI-MCMC)
    # ------------------------------------------------------------------
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
            self._refactor()

    def _lml_from(self, lower: np.ndarray, alpha: np.ndarray) -> float:
        assert self._y is not None
        log_det = 2.0 * float(np.log(lower.diagonal()).sum())
        return -0.5 * float(self._y @ alpha) - 0.5 * log_det - 0.5 * self._y.shape[0] * _LOG_2PI

    def log_marginal_likelihood(
        self, theta: np.ndarray | None = None, along: int | None = None
    ) -> float:
        """LML of the (standardized) training targets.

        With ``theta`` given, evaluates at those hyper-parameters
        *without touching the model state*: a temporary kernel and
        factorization are built instead of mutating and restoring the
        model (which used to cost two refactorizations per evaluation).
        Results are memoized per exact theta until the training data
        changes, so slice sampling's repeated evaluations at the current
        chain state are free — and return bit-identical floats.

        ``along=j`` declares that successive calls differ only in
        ``theta[j]``, as in one univariate slice-sampling update.  The
        covariance is then assembled from a base built once for "theta
        with coordinate ``j`` free" (see :meth:`_covariance_along`)
        instead of a full kernel build; the value equals the
        ``along=None`` one up to round-off.
        """
        if not self.is_fitted:
            raise RuntimeError("log_marginal_likelihood() called before fit()")
        if theta is None:
            assert self._chol_lower is not None and self._alpha is not None
            return self._lml_from(self._chol_lower, self._alpha)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_hyperparameters,):
            raise ValueError(f"expected {self.n_hyperparameters} hyper-parameters")
        if along is not None and not 0 <= along < theta.shape[0]:
            raise ValueError(f"along must index one of {theta.shape[0]} hyper-parameters")
        cached = self._lml_cache.get(theta)
        if cached is not None:
            return cached
        if along is None:
            kernel = self.kernel.clone()
            kernel.set_theta(theta[:-1])
            k = kernel(self._x, self._x)
        else:
            k = self._covariance_along(theta, along)
        k = add_noise(k, float(np.exp(theta[-1])), self._extra_noise)
        # Only the lower triangle is read: skip zeroing the upper one.
        lower = chol_lower(k, clean=False)
        value = self._lml_from(lower, chol_solve(lower, self._y))
        self._lml_cache.put(theta, value)
        return value

    def _covariance_along(self, theta: np.ndarray, along: int) -> np.ndarray:
        """Noise-free training covariance at ``theta`` from a base that
        holds everything but coordinate ``along``.

        For lengthscale ``d = along - 1`` the base is the scaled squared
        distance over the other dimensions plus the raw column term
        ``(x_d - x_d')^2``, so ``sq = base + column * exp(-2 theta[along])``
        and the covariance is the kernel formula of ``sq`` times the
        signal variance.  For the signal or the noise coordinate the
        base is the unit-signal kernel matrix at theta's lengthscales,
        scaled per call (noise is added by the caller).  The base is
        rebuilt whenever the other coordinates or ``along`` change.
        """
        masked = theta.copy()
        masked[along] = 0.0
        key = (masked.tobytes(), along)
        if self._along_base is None or self._along_base[0] != key:
            self._along_base = (key, self._build_base(theta, along))
        rest, column = self._along_base[1]
        signal = float(np.exp(theta[0]))
        if column is None:
            return rest * signal
        sq = column * float(np.exp(-2.0 * theta[along]))
        sq += rest
        k = ard_shape(sq, self.kernel.matern)
        k *= signal
        return k

    def _build_base(self, theta: np.ndarray, along: int) -> tuple[np.ndarray, np.ndarray | None]:
        """``(unit-signal kernel matrix, None)`` for the signal or noise
        coordinate, ``(other dimensions' sq, column term)`` for a
        lengthscale."""
        lengthscales = np.exp(theta[1:-1])
        x = self._x
        if along == 0 or along == theta.shape[0] - 1:
            a, aa = scaled_rows(x, lengthscales)
            return ard_shape(scaled_sq_dist(2.0 * a, aa, a, aa), self.kernel.matern), None
        d = along - 1
        a, aa = scaled_rows(np.delete(x, d, axis=1), np.delete(lengthscales, d))
        diff = x[:, d, None] - x[None, :, d]
        return scaled_sq_dist(2.0 * a, aa, a, aa), diff * diff

    def clone_with_theta(self, theta: np.ndarray) -> "GaussianProcess":
        """An independent fitted copy at the given hyper-parameters."""
        gp = GaussianProcess(self.kernel.clone(), self.noise_variance)
        if self.is_fitted:
            gp.fit(self._x, self._y_raw, extra_noise=self._extra_noise)
        gp.set_theta(np.asarray(theta, dtype=float))
        return gp

