"""Kernel Principal Component Analysis with pre-image reconstruction.

CPE (paper section 3.3.2) compresses the CPS-surviving configuration
parameters into a small number of nonlinear components; BO then searches
the component space and concrete configurations are recovered from
latent points via an approximate pre-image.

Three kernels are provided, matching the paper's Figure 6 comparison:

* ``"gaussian"`` — RBF, the paper's winner;
* ``"polynomial"`` — (gamma <x, y> + coef0)^degree;
* ``"perceptron"`` — the distance kernel ``Delta - ||x - y||`` of Lin &
  Li, conditionally positive definite (valid after KPCA centering).

Pre-images use Mika et al.'s fixed-point iteration for the Gaussian
kernel and a feature-distance-weighted neighbourhood average otherwise.
"""

from __future__ import annotations

import numpy as np

_KERNELS = ("gaussian", "polynomial", "perceptron")


def _pairwise_sq_dists(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    aa = np.sum(x1 * x1, axis=1)[:, None]
    bb = np.sum(x2 * x2, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * x1 @ x2.T, 0.0)


class KernelPCA:
    """Kernel PCA over points in the unit hypercube.

    ``n_components`` fixes the latent dimension (capped at ``n - 1`` for
    ``n`` training points and at the number of numerically positive
    eigenvalues); IICP sizes it by the Figure 10 rule in
    :meth:`repro.core.locat.LOCAT._latent_dim_cap`.
    """

    def __init__(
        self,
        n_components: int,
        kernel: str = "gaussian",
        gamma: float | None = None,
        degree: int = 3,
        coef0: float = 1.0,
    ):
        if kernel not in _KERNELS:
            raise ValueError(f"kernel must be one of {_KERNELS}")
        if n_components < 1:
            raise ValueError("n_components must be positive")
        self.kernel = kernel
        self.n_components = n_components
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0

        self._x: np.ndarray | None = None
        self._alphas: np.ndarray | None = None  # (n_train, n_components)
        self._lambdas: np.ndarray | None = None
        self._train_latents: np.ndarray | None = None  # cached transform(self._x)
        self._k_row_means: np.ndarray | None = None
        self._k_mean = 0.0
        self._gamma_value = 1.0
        self._delta = 1.0
        self.n_components_: int = 0

    # ------------------------------------------------------------------
    # Kernel evaluation
    # ------------------------------------------------------------------
    def _kernel_matrix(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        if self.kernel == "gaussian":
            return np.exp(-self._gamma_value * _pairwise_sq_dists(x1, x2))
        if self.kernel == "polynomial":
            return (self._gamma_value * (x1 @ x2.T) + self.coef0) ** self.degree
        # Perceptron kernel: Delta - ||x - y||.
        return self._delta - np.sqrt(_pairwise_sq_dists(x1, x2))

    # ------------------------------------------------------------------
    # Fit / transform
    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray) -> "KernelPCA":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, d = x.shape
        if n < 2:
            raise ValueError("KernelPCA needs at least two samples")
        self._x = x
        if self.gamma is not None:
            self._gamma_value = self.gamma
        else:
            # Median heuristic: scale so a typical pair has kernel ~ e^-1,
            # which keeps the centered spectrum informative instead of
            # collapsing onto one or two components.
            sq = _pairwise_sq_dists(x, x)
            median_sq = float(np.median(sq[np.triu_indices(n, k=1)]))
            self._gamma_value = 1.0 / max(median_sq, 1e-9)
        self._delta = float(np.sqrt(d))  # max distance in the unit cube

        k = self._kernel_matrix(x, x)
        self._k_row_means = k.mean(axis=1)
        self._k_mean = float(k.mean())
        ones = np.full((n, n), 1.0 / n)
        k_centered = k - ones @ k - k @ ones + ones @ k @ ones

        eigvals, eigvecs = np.linalg.eigh(k_centered)
        order = np.argsort(eigvals)[::-1]
        eigvals = np.maximum(eigvals[order], 0.0)
        eigvecs = eigvecs[:, order]

        if float(eigvals.sum()) <= 0:
            raise ValueError("kernel matrix has no positive spectrum (degenerate inputs)")

        # Drop numerically-zero directions.
        positive = int(np.sum(eigvals > 1e-10 * eigvals[0])) or 1
        n_comp = min(self.n_components, n - 1, positive)

        self._lambdas = eigvals[:n_comp]
        self._alphas = eigvecs[:, :n_comp] / np.sqrt(np.maximum(self._lambdas, 1e-18))
        self.n_components_ = n_comp
        # Cache the training latents once: latent_bounds() and every
        # pre-image call need them, and recomputing transform(self._x)
        # per call dominated inverse_transform profiles.
        self._train_latents = self.transform(x)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Project points onto the principal components (rows -> latents)."""
        if self._x is None or self._alphas is None:
            raise RuntimeError("transform() called before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k = self._kernel_matrix(x, self._x)
        k_centered = (
            k
            - k.mean(axis=1, keepdims=True)
            - self._k_row_means[None, :]
            + self._k_mean
        )
        return k_centered @ self._alphas

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    # ------------------------------------------------------------------
    # Pre-image (latent -> input space)
    # ------------------------------------------------------------------
    def latent_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box of the training latents.

        BO searches inside this box (slightly inflated) when tuning in
        the extracted-parameter space.
        """
        if self._x is None or self._train_latents is None:
            raise RuntimeError("latent_bounds() called before fit()")
        latents = self._train_latents
        low = latents.min(axis=0)
        high = latents.max(axis=0)
        margin = 0.1 * np.maximum(high - low, 1e-9)
        return low - margin, high + margin

    def inverse_transform(self, latents: np.ndarray, n_iterations: int = 8) -> np.ndarray:
        """Approximate pre-images of latent points, clipped to [0, 1].

        Solves ``argmin_x ||transform(x) - z||^2`` over the unit cube by
        coordinate descent run for *all rows simultaneously*: every
        sweep scores the ``2 * dim`` single-coordinate perturbations of
        every still-active row in one vectorized :meth:`transform` call,
        with per-row step sizes and convergence.  Each row is seeded
        from the training point whose latent image is nearest, so the
        inversion is exact for training latents and encode/decode
        round-trips preserve observed configurations — essential for
        BO, where conflicting pre-images of the same latent would
        corrupt the surrogate.
        """
        if self._x is None or self._alphas is None or self._train_latents is None:
            raise RuntimeError("inverse_transform() called before fit()")
        z = np.atleast_2d(np.asarray(latents, dtype=float))
        if z.shape[1] != self.n_components_:
            raise ValueError(f"expected {self.n_components_} latent dims, got {z.shape[1]}")
        x = self._x
        n_rows, d = z.shape[0], x.shape[1]

        # Seeds: nearest training latent per target row.
        dists = np.linalg.norm(self._train_latents[None, :, :] - z[:, None, :], axis=2)
        points = x[np.argmin(dists, axis=1)].copy()

        diff = self.transform(points) - z
        best_err = np.sum(diff * diff, axis=1)

        # Small steps keep each pre-image close to its seed: of the many
        # inputs mapping near a target (the map is non-injective), we
        # want the minimum-movement one, so that nearby latents decode to
        # nearby configurations and BO can exploit locally.
        steps = np.full(n_rows, 0.08)
        active = np.ones(n_rows, dtype=bool)
        rows = np.arange(d)
        for _ in range(max(n_iterations, 10)):
            act = np.flatnonzero(active)
            if act.size == 0:
                break
            base = points[act]
            trials = np.repeat(base[:, None, :], 2 * d, axis=1)  # (a, 2d, d)
            trials[:, rows, rows] = np.clip(base[:, rows] + steps[act, None], 0.0, 1.0)
            trials[:, d + rows, rows] = np.clip(base[:, rows] - steps[act, None], 0.0, 1.0)
            lat = self.transform(trials.reshape(-1, d)).reshape(act.size, 2 * d, -1)
            diff = lat - z[act, None, :]
            errs = np.einsum("abk,abk->ab", diff, diff)
            top = np.argmin(errs, axis=1)
            top_errs = errs[np.arange(act.size), top]
            improved = top_errs < best_err[act] - 1e-12
            moved = act[improved]
            points[moved] = trials[improved, top[improved]]
            best_err[moved] = top_errs[improved]
            stalled = act[~improved]
            steps[stalled] *= 0.5
            active[stalled[steps[stalled] < 0.005]] = False
        return np.clip(points, 0.0, 1.0)
