"""Bayesian optimization substrate built from scratch on numpy.

Implements everything LOCAT's DAGP needs (paper section 3.4): Gaussian
process regression with ARD kernels, Latin hypercube start points,
expected improvement, and EI-MCMC (slice-sampling marginalization of the
GP hyper-parameters, following Snoek et al. 2012).  The only scipy code
it runs is LAPACK, reached through :mod:`repro.surrogate.incremental`;
the normal CDF of the acquisition functions is libm's ``erfc``.
"""

from repro.bo.acquisition import (
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.bo.gp import GaussianProcess
from repro.bo.kernels import Matern52Kernel, RBFKernel
from repro.bo.lhs import latin_hypercube
from repro.bo.mcmc import slice_sample_chain
from repro.bo.optimize import maximize_acquisition

__all__ = [
    "GaussianProcess",
    "Matern52Kernel",
    "RBFKernel",
    "expected_improvement",
    "latin_hypercube",
    "maximize_acquisition",
    "probability_of_improvement",
    "slice_sample_chain",
    "upper_confidence_bound",
]
