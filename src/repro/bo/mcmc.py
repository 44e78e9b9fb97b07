"""Slice sampling over GP hyper-parameters (the "MCMC" of EI-MCMC).

LOCAT uses expected improvement with MCMC hyper-parameter
marginalization (Snoek et al. 2012): instead of optimizing the GP
hyper-parameters to a point estimate, acquisition values are averaged
over posterior samples of the hyper-parameters, which removes the need
for external GP tuning (paper section 3.4, "Acquisition function").

The sampler is univariate slice sampling with step-out and shrinkage
(Neal, "Slice Sampling", Annals of Statistics 2003), applied
coordinate-wise to the log hyper-parameter vector, under independent
Gaussian priors in log space.  The step-out limit of
:data:`STEP_OUT_LIMIT` widths is split at random between the two sides
of the bracket, as Neal's procedure does, so the update stays
reversible when the limit binds.

Three engine-level properties of this implementation:

* **No GP mutation.**  Posterior evaluations go through the GP's
  non-mutating, per-theta memoized ``log_marginal_likelihood`` — the
  chain never refactorizes the model's own state, and re-evaluating the
  current chain state (once per coordinate update) is a cache hit.
* **One kernel base per update.**  Every evaluation inside an update of
  coordinate ``j`` passes ``along=j``, so the GP assembles each
  covariance from a base built once for that coordinate instead of a
  full ARD kernel build (see
  :meth:`repro.bo.gp.GaussianProcess.log_marginal_likelihood`).
* **Warm starts.**  :func:`slice_sample_chain` accepts the final state
  of a previous chain (``initial_theta``) and returns its own final
  state.  A surrogate that extends its training set by a few
  observations between refreshes resumes the chain near the posterior
  mode, so the burn-in can be slashed to a handful of updates (see
  :meth:`repro.core.dagp.DatasizeAwareGP.extend`).

The step width, the step-out limit ``m`` and the fresh-chain burn-in
(:data:`repro.core.dagp.MCMC_BURN_IN`) come from a sweep over 72
seeded cold TPC-DS sessions (``LOCAT(SparkSQLSimulator(x86), tpcds,
rng=(40, i)).tune(100.0)``, i = 0..71; geomean tuned duration and
simulated overhead, mean evaluations, LML evaluations and MCMC seconds
per session, one BLAS thread on a 2-vCPU host).  The old sampler gave
each side its own limit of 8 steps of width 1.0 and burned in 20
updates.  MCMC seconds come from one run that interleaved all eight
variants session by session; the old sampler's come from a separate
serial run per variant, in which the eight variants measured
0.105-0.143 s.

=========================  =========  ======  ========  ======  ======
variant (width, m, burn)   tuned (s)  evals   overhead  LMLs    MCMC s
=========================  =========  ======  ========  ======  ======
old sampler (1.0, 8+8, 20)    1204.5   102.2     88879    3240   0.250
1.0, 8, 20                    1201.1   100.9     87160    2336   0.129
1.0, 8, 10                    1206.7   101.5     89106    2127   0.117
1.0, 16, 20                   1196.7   101.0     88441    2799   0.153
1.0, 16, 10                   1202.3   100.8     89713    2534   0.141
2.0, 8, 20                    1199.2   101.4     88339    2105   0.120
**2.0, 8, 10**                1195.3   102.1     88675    1902   0.108
2.0, 16, 20                   1192.9   101.0     89696    2228   0.123
2.0, 16, 10                   1186.7   101.8     88802    2057   0.118
=========================  =========  ======  ========  ======  ======

Every variant kept the tuned duration within 1% of the old sampler's
(or better) and evaluations and overhead within 2%, so the cheapest,
width 2.0 (the prior's standard deviation), ``m = 8`` and a burn-in of
10, is the one used.
"""

from __future__ import annotations

import numpy as np

from repro.bo.gp import GaussianProcess
from repro.stats.sampling import ensure_rng

#: Prior over each log hyper-parameter: N(mean, std^2) in log space.
_PRIOR_MEAN = -1.0
_PRIOR_STD = 2.0

#: Width of one step-out step, in log units.
STEP_WIDTH = 2.0

#: Neal's ``m``: the most widths a slice bracket may span after the
#: step-out, split at random between its two sides.
STEP_OUT_LIMIT = 8


def _log_prior(theta: np.ndarray) -> float:
    z = (theta - _PRIOR_MEAN) / _PRIOR_STD
    return float(-0.5 * (z * z).sum())


def _log_posterior(gp: GaussianProcess, theta: np.ndarray, along: int | None = None) -> float:
    try:
        lml = gp.log_marginal_likelihood(theta, along=along)
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
) -> np.ndarray:
    """One univariate slice-sampling update of ``theta[index]``.

    Step-out and shrinkage as in Neal (2003), figures 3 and 5: the
    :data:`STEP_OUT_LIMIT` steps are split as ``J = floor(m V)`` to the
    left and ``m - 1 - J`` to the right, which keeps the update
    reversible when the limit binds.
    """
    log_p0 = _log_posterior(gp, theta, index)
    log_y = log_p0 + np.log(max(rng.random(), 1e-300))

    left = theta.copy()
    right = theta.copy()
    offset = rng.random() * STEP_WIDTH
    left[index] = theta[index] - offset
    right[index] = theta[index] + (STEP_WIDTH - offset)
    steps_left = int(STEP_OUT_LIMIT * rng.random())
    steps_right = STEP_OUT_LIMIT - 1 - steps_left

    for _ in range(steps_left):  # step out
        if _log_posterior(gp, left, index) <= log_y:
            break
        left[index] -= STEP_WIDTH
    for _ in range(steps_right):
        if _log_posterior(gp, right, index) <= log_y:
            break
        right[index] += STEP_WIDTH

    proposal = theta.copy()
    for _ in range(32):  # shrink
        proposal[index] = rng.uniform(left[index], right[index])
        if _log_posterior(gp, proposal, index) > log_y:
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
    """Posterior samples of the GP hyper-parameter vector from one
    slice-sampling chain; returns ``(samples, final_state)``.

    ``initial_theta`` warm-starts the chain (defaults to the GP's
    current hyper-parameters); the returned ``final_state`` is the
    chain's last state, which a later call can resume from with a much
    smaller ``burn_in``.  The GP is never mutated.

    The chain runs ``burn_in + n_samples * thin`` coordinate updates and
    collects every ``thin``-th state after burn-in: exactly ``n_samples``
    log-space vectors.
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
    for step in range(burn_in + n_samples * thin):
        index = int(gen.integers(0, theta.shape[0]))
        theta = _slice_sample_coordinate(gp, theta, index, gen)
        if step >= burn_in and (step - burn_in) % thin == 0:
            samples.append(theta.copy())
    return samples, theta.copy()
