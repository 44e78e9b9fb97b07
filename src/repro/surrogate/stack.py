"""Stacked multi-model state for EI-MCMC acquisition.

EI-MCMC (Snoek et al. 2012) marginalizes the acquisition function over
``n_mcmc`` posterior samples of the GP hyper-parameters.  The historic
implementation materialized one fitted :class:`~repro.bo.gp.GaussianProcess`
clone per sample and looped over them in Python for every acquisition
call — hundreds of calls per BO iteration, each paying per-clone kernel
builds and Python dispatch.

:class:`ModelStack` holds the per-sample state only as stacked arrays
over one shared training set: precision matrices ``K^-1`` ``(S, n, n)``,
``alpha`` vectors ``(S, n)``, signal variances and lengthscales, and
the training side of the scaled distance (``2 x / ls`` and the row
norms of ``x / ls``).  They are built once per change of the training set — in
:meth:`ModelStack.from_gp` and :meth:`ModelStack.extend` — not once per
``predict``.  A prediction then scales only the query points and runs
one stacked kernel evaluation (the kernels' own
:func:`~repro.bo.kernels.ard_covariance`, so every slice equals the
sample's kernel bit for bit), batched matmuls for the means and
variances (no per-model triangular solves), and one elementwise EI pass
over all models.  ``extend`` performs the exact rank-k block-inverse
update *per sample*, so appending observations never refits any of the
``n_mcmc`` models.
"""

from __future__ import annotations

import numpy as np

from repro.bo.acquisition import expected_improvement
from repro.bo.kernels import ard_covariance, scaled_rows
from repro.surrogate.incremental import add_noise, chol_lower, chol_solve


class ModelStack:
    """``n_mcmc`` GP posteriors at sampled hyper-parameters, stacked.

    All models share the training inputs and (standardized) targets;
    they differ only in their hyper-parameter vector ``theta = [log
    signal, log lengthscales..., log noise]``.  Construction factorizes
    each model once; afterwards prediction and acquisition are
    vectorized over the sample axis and ``extend`` appends observations
    with exact rank-k updates.
    """

    def __init__(self, gp, thetas: list[np.ndarray]):
        """Factorize the GP's training set at each hyper-parameter sample.

        Equivalent to ``[gp.clone_with_theta(t) for t in thetas]`` — each
        model's ``(alpha, K^-1)`` is computed from the same covariance a
        fitted clone would build — without constructing GP objects.
        Each model's precision matrix costs one O(n^3/3) triangular
        solve, paid once per MCMC refresh.
        """
        if not gp.is_fitted:
            raise RuntimeError("ModelStack requires a fitted GP")
        if not thetas:
            raise ValueError("ModelStack needs at least one hyper-parameter sample")
        x = gp.training_inputs
        y = gp.standardized_targets
        extra = gp.extra_noise_vector
        # Every sample's kernel is a clone of the GP's: one family.
        self._matern = gp.kernel.matern
        thetas = [np.asarray(t, dtype=float) for t in thetas]
        # The same expressions a clone's ``set_theta`` evaluates, shaped
        # to broadcast over (sample, row, column).
        signal = np.array([float(np.exp(t[0])) for t in thetas])
        self._noises = np.array([float(np.exp(t[-1])) for t in thetas])
        self._prior_var = signal + self._noises
        self._signal = signal[:, None, None]
        self._lengthscales = np.stack([np.exp(t[1:-1]) for t in thetas])[:, None, :]
        # The training side of every scaled distance: 2 x / ls (the
        # factor the kernels apply before their matmul) and the row norms.
        a, self._aa = scaled_rows(x, self._lengthscales)
        self._two_a = 2.0 * a
        grams = ard_covariance(self._two_a, self._aa, a, self._aa, self._signal, self._matern)
        alphas, precisions = [], []
        eye = np.eye(x.shape[0])
        for s, k in enumerate(grams):
            lower = chol_lower(add_noise(k, self._noises[s], extra))
            alphas.append(chol_solve(lower, y))
            precisions.append(chol_solve(lower, eye))
        self._alphas = np.stack(alphas)
        # LAPACK returns Fortran-order solutions and np.stack keeps that
        # order per slice.  It decides which BLAS kernel a matmul through
        # a slice runs, and so its rounding: a C-order copy differs in
        # the last bits.
        self._precisions = np.stack(precisions)
        self._y_mean = float(gp.target_mean)
        self._y_std = float(gp.target_std)

    @classmethod
    def from_gp(cls, gp, thetas: list[np.ndarray]) -> "ModelStack":
        """The stack of ``gp``'s posteriors at each of ``thetas``."""
        return cls(gp, thetas)

    @property
    def n_models(self) -> int:
        return self._precisions.shape[0]

    @property
    def n_samples(self) -> int:
        return self._precisions.shape[1]

    # ------------------------------------------------------------------
    # Posterior and acquisition
    # ------------------------------------------------------------------
    def cross_covariance(self, x_star: np.ndarray) -> np.ndarray:
        """Training-to-query covariances per model, ``(n_models, n_train, n_query)``.

        Slice ``s`` equals the sample's own kernel ``k_s(x_train, x_star)``
        bit for bit.
        """
        b, bb = scaled_rows(np.atleast_2d(np.asarray(x_star, dtype=float)), self._lengthscales)
        return ard_covariance(self._two_a, self._aa, b, bb, self._signal, self._matern)

    def predict(self, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean/std per model, ``(n_models, n_query)`` each.

        Outputs are de-standardized to raw target units, matching
        ``GaussianProcess.predict`` model by model up to round-off.
        """
        k_star = self.cross_covariance(x_star)
        quad = np.sum(k_star * np.matmul(self._precisions, k_star), axis=1)
        means = np.einsum("snm,sn->sm", k_star, self._alphas)
        means = means * self._y_std + self._y_mean
        var = self._prior_var[:, None] - quad
        stds = np.sqrt(np.maximum(var, 1e-12)) * self._y_std
        return means, stds

    def acquisition(self, x_star: np.ndarray, best: float) -> np.ndarray:
        """EI averaged over the hyper-parameter samples (to maximize)."""
        means, stds = self.predict(x_star)
        # A sum over axis 0 adds the models' rows one after another in
        # model order: the same floats as a running total over models.
        return expected_improvement(means, stds, best).sum(axis=0) / self.n_models

    # ------------------------------------------------------------------
    # Incremental extension
    # ------------------------------------------------------------------
    def extend(
        self,
        x_new: np.ndarray,
        y_standardized: np.ndarray,
        y_mean: float,
        y_std: float,
        extra_noise_new: np.ndarray | None = None,
    ) -> "ModelStack":
        """Append observations to every stacked model, rank-k, in place.

        ``y_standardized`` is the *full* standardized target vector after
        the append (appending shifts the shared target standardization,
        which only touches the ``alpha`` vectors — the precision matrices
        are target-free).  ``extra_noise_new`` is per-new-row additional
        observation noise (standardized units), mirroring
        :meth:`repro.bo.gp.GaussianProcess.extend`.
        """
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        y_standardized = np.asarray(y_standardized, dtype=float).ravel()
        n = self.n_samples
        n_new = x_new.shape[0]
        if y_standardized.shape[0] != n + n_new:
            raise ValueError("y_standardized must cover old and new rows")
        b_new, bb_new = scaled_rows(x_new, self._lengthscales)
        two_b_new = 2.0 * b_new
        crosses = ard_covariance(self._two_a, self._aa, b_new, bb_new, self._signal, self._matern)
        news = ard_covariance(two_b_new, bb_new, b_new, bb_new, self._signal, self._matern)
        if extra_noise_new is not None:
            extra_noise_new = np.asarray(extra_noise_new, dtype=float).ravel()
        precisions = np.empty((self.n_models, n + n_new, n + n_new))
        alphas = np.empty((self.n_models, n + n_new))
        eye = np.eye(n_new)
        for s in range(self.n_models):
            b = crosses[s]
            c = add_noise(news[s], self._noises[s], extra_noise_new)
            # Block-inverse update, O(n^2 k): with W = K^-1 B and the
            # Schur complement S = C - B^T W,
            #   [[K, B], [B^T, C]]^-1 =
            #   [[V + W S^-1 W^T, -W S^-1], [-S^-1 W^T, S^-1]].
            v = self._precisions[s]
            w = v @ b
            schur = c - b.T @ w
            schur_inv = chol_solve(chol_lower(schur), eye)
            ws = w @ schur_inv
            grown = np.block([[v + ws @ w.T, -ws], [-ws.T, schur_inv]])
            # Keep the quadratic forms stable across many rank-k
            # updates: the formula is symmetric, round-off is not.
            precisions[s] = (grown + grown.T) / 2.0
            alphas[s] = precisions[s] @ y_standardized
        self._precisions = precisions
        self._alphas = alphas
        self._two_a = np.concatenate([self._two_a, two_b_new], axis=1)
        self._aa = np.concatenate([self._aa, bb_new], axis=1)
        self._y_mean = float(y_mean)
        self._y_std = float(y_std)
        return self
