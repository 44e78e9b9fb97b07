"""Covariance kernels for Gaussian process regression.

Kernels expose their hyper-parameters as a flat log-space vector (``theta``)
so the slice sampler in :mod:`repro.bo.mcmc` can treat every kernel
uniformly.  Layout: ``theta = [log signal_variance, log lengthscale_1, ...,
log lengthscale_d]`` (ARD: one lengthscale per input dimension).

Both kernels evaluate through :func:`ard_covariance`, which
:class:`repro.surrogate.stack.ModelStack` also calls on stacked inputs to
evaluate all of EI-MCMC's hyper-parameter samples in one pass.  One code
path serves both, so slice ``s`` of a stacked evaluation equals
``kernels[s](x1, x2)`` bit for bit.
"""

from __future__ import annotations

import numpy as np

_SQRT5 = np.sqrt(5.0)


def scaled_rows(x: np.ndarray, lengthscales: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x / lengthscales`` and the squared norm of each scaled row.

    ``lengthscales`` is ``(d,)`` for one kernel, or ``(S, 1, d)`` for a
    stack of ``S`` kernels, whose results gain a leading sample axis.
    """
    a = x / lengthscales
    return a, np.sum(a * a, axis=-1)


def ard_covariance(
    two_a: np.ndarray,
    aa: np.ndarray,
    b: np.ndarray,
    bb: np.ndarray,
    signal_variance,
    matern: bool,
) -> np.ndarray:
    """Covariance between two sets of scaled inputs, ``(..., n1, n2)``.

    ``b, bb = scaled_rows(x2, ls)``; ``aa`` is the same row norm of
    ``x1`` and ``two_a`` is ``2.0 * x1 / ls``.  Inputs may carry a
    leading sample axis, with ``signal_variance`` of shape ``(S, 1, 1)``.
    The formula is evaluated in place, in the operation order of
    ``sv * exp(-0.5 * sq)`` (RBF) and
    ``sv * (1 + sqrt5 r + 5/3 sq) * exp(-sqrt5 r)`` (Matern 5/2), with
    ``sq = aa + bb - 2 a b^T`` clipped at zero.
    """
    # ``two_a`` and ``b`` are distinct arrays even for ``x1 is x2``: a
    # product ``a @ a.T`` would dispatch to syrk and round differently.
    sq = aa[..., :, None] + bb[..., None, :]
    sq -= two_a @ np.swapaxes(b, -1, -2)
    np.maximum(sq, 0.0, out=sq)
    if not matern:
        sq *= -0.5
        np.exp(sq, out=sq)
        sq *= signal_variance
        return sq
    r = np.sqrt(sq)
    term = _SQRT5 * r
    term += 1.0
    sq *= 5.0 / 3.0
    term += sq
    r *= -_SQRT5
    np.exp(r, out=r)
    term *= signal_variance
    term *= r
    return term


class _ARDKernel:
    """Shared state of the ARD kernels: a signal variance and ``dim``
    lengthscales; subclasses pick the formula."""

    #: Matern 5/2 formula if true, squared-exponential otherwise.
    matern = False

    def __init__(self, dim: int, signal_variance: float = 1.0, lengthscale: float = 0.5):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.signal_variance = float(signal_variance)
        self.lengthscales = np.full(dim, float(lengthscale))

    @property
    def n_params(self) -> int:
        return 1 + self.dim

    def get_theta(self) -> np.ndarray:
        return np.concatenate(([np.log(self.signal_variance)], np.log(self.lengthscales)))

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {theta.shape}")
        self.signal_variance = float(np.exp(theta[0]))
        self.lengthscales = np.exp(theta[1:])

    def __call__(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        a, aa = scaled_rows(np.atleast_2d(x1), self.lengthscales)
        b, bb = (a, aa) if x2 is x1 else scaled_rows(np.atleast_2d(x2), self.lengthscales)
        return ard_covariance(2.0 * a, aa, b, bb, self.signal_variance, self.matern)

    def diag(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.atleast_2d(x).shape[0], self.signal_variance)

    def clone(self):
        kernel = type(self)(self.dim, self.signal_variance)
        kernel.lengthscales = self.lengthscales.copy()
        return kernel


class RBFKernel(_ARDKernel):
    """Squared-exponential kernel with ARD lengthscales."""


class Matern52Kernel(_ARDKernel):
    """Matern 5/2 kernel with ARD lengthscales.

    The standard choice for hyper-parameter/configuration tuning because
    it does not assume the unrealistic infinite smoothness of the RBF
    (Snoek et al. 2012).
    """

    matern = True
