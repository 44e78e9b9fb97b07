"""Slice sampling over GP hyper-parameters (the "MCMC" of EI-MCMC).

LOCAT uses expected improvement with MCMC hyper-parameter
marginalization (Snoek et al. 2012): instead of optimizing the GP
hyper-parameters to a point estimate, acquisition values are averaged
over posterior samples of the hyper-parameters, which removes the need
for external GP tuning (paper section 3.4, "Acquisition function").

The sampler is univariate slice sampling with step-out, applied
coordinate-wise to the log hyper-parameter vector, under independent
Gaussian priors in log space.

Two engine-level properties of this implementation:

* **No GP mutation.**  Posterior evaluations go through the GP's
  non-mutating, per-theta memoized ``log_marginal_likelihood`` — the
  chain never refactorizes the model's own state, and re-evaluating the
  current chain state (once per coordinate update) is a cache hit.
* **Warm starts.**  :func:`slice_sample_chain` accepts the final state
  of a previous chain (``initial_theta``) and returns its own final
  state.  A surrogate that extends its training set by a few
  observations between refreshes resumes the chain near the posterior
  mode, so the burn-in can be slashed from tens of steps to a handful
  (see :meth:`repro.core.dagp.DatasizeAwareGP.extend`).
"""

from __future__ import annotations

import numpy as np

from repro.bo.gp import GaussianProcess
from repro.stats.sampling import ensure_rng

#: Prior over each log hyper-parameter: N(mean, std^2) in log space.
_PRIOR_MEAN = -1.0
_PRIOR_STD = 2.0


def _log_prior(theta: np.ndarray) -> float:
    z = (theta - _PRIOR_MEAN) / _PRIOR_STD
    return float(-0.5 * np.sum(z * z))


def _log_posterior(gp: GaussianProcess, theta: np.ndarray) -> float:
    try:
        lml = gp.log_marginal_likelihood(theta)
    except np.linalg.LinAlgError:
        return -np.inf
    if not np.isfinite(lml):
        return -np.inf
    return lml + _log_prior(theta)


def _slice_sample_coordinate(
    gp: GaussianProcess,
    theta: np.ndarray,
    index: int,
    rng: np.random.Generator,
    width: float = 1.0,
    max_steps: int = 8,
) -> np.ndarray:
    """One univariate slice-sampling update of ``theta[index]``."""
    log_p0 = _log_posterior(gp, theta)
    log_y = log_p0 + np.log(max(rng.random(), 1e-300))

    left = theta.copy()
    right = theta.copy()
    offset = rng.random() * width
    left[index] = theta[index] - offset
    right[index] = theta[index] + (width - offset)

    for _ in range(max_steps):  # step out
        if _log_posterior(gp, left) <= log_y:
            break
        left[index] -= width
    for _ in range(max_steps):
        if _log_posterior(gp, right) <= log_y:
            break
        right[index] += width

    proposal = theta.copy()
    for _ in range(32):  # shrink
        proposal[index] = rng.uniform(left[index], right[index])
        if _log_posterior(gp, proposal) > log_y:
            return proposal
        if proposal[index] < theta[index]:
            left[index] = proposal[index]
        else:
            right[index] = proposal[index]
    return theta  # degenerate slice: keep the current point


def slice_sample_chain(
    gp: GaussianProcess,
    n_samples: int = 10,
    burn_in: int = 20,
    thin: int = 2,
    rng: int | np.random.Generator | None = None,
    initial_theta: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Run one slice-sampling chain; returns ``(samples, final_state)``.

    ``initial_theta`` warm-starts the chain (defaults to the GP's
    current hyper-parameters); the returned ``final_state`` is the
    chain's last state, which a later call can resume from with a much
    smaller ``burn_in``.  The GP is never mutated.

    The chain runs ``burn_in + n_samples * thin`` coordinate updates and
    collects every ``thin``-th state after burn-in.  If that schedule
    ever yields fewer than ``n_samples`` (it cannot under the standard
    arithmetic, but the guard used to pad with *duplicates* of the last
    state), the chain is simply run further — every returned sample is a
    genuinely fresh chain state, deterministically under the same seed.
    """
    if not gp.is_fitted:
        raise RuntimeError("GP must be fitted before sampling hyper-parameters")
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    gen = ensure_rng(rng)
    if initial_theta is None:
        theta = gp.get_theta().copy()
    else:
        theta = np.asarray(initial_theta, dtype=float).copy()
        if theta.shape != (gp.n_hyperparameters,):
            raise ValueError(f"initial_theta must have {gp.n_hyperparameters} entries")
    samples: list[np.ndarray] = []

    def advance() -> None:
        nonlocal theta
        index = int(gen.integers(0, theta.shape[0]))
        theta = _slice_sample_coordinate(gp, theta, index, gen)

    total = burn_in + n_samples * thin
    for step in range(total):
        advance()
        if step >= burn_in and (step - burn_in) % thin == 0:
            samples.append(theta.copy())
    while len(samples) < n_samples:  # extend the chain if thinning undershot
        for _ in range(thin):
            advance()
        samples.append(theta.copy())
    return samples[:n_samples], theta.copy()


def slice_sample_hyperparameters(
    gp: GaussianProcess,
    n_samples: int = 10,
    burn_in: int = 20,
    thin: int = 2,
    rng: int | np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Posterior samples of the GP hyper-parameter vector.

    Returns ``n_samples`` log-space vectors; the chain starts from the
    GP's current hyper-parameters and the GP's state is never touched.
    Thin wrapper over :func:`slice_sample_chain` for callers that do not
    track warm-start state.
    """
    samples, _ = slice_sample_chain(
        gp, n_samples=n_samples, burn_in=burn_in, thin=thin, rng=rng
    )
    return samples
