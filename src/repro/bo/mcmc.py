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

The sample budget comes from a second sweep
(``benchmarks/sweep_ei_mcmc_budget.py``): 16 variants of (posterior
samples ``n_mcmc``, chain thinning, refresh interval
:data:`repro.core.dagp.MCMC_REFRESH_ROWS`), all variants interleaved
session by session in one process per seed.  Two kinds of run, 72 of
each per variant and seed: cold sessions at 100 GB (``rng=(40, i)``
to choose, the held-out ``rng=(41, i)``), and DAGP adaptation
sequences, one tuner tuned at 100, then 300, then 500 GB, of which the
300 and 500 GB sessions count (``rng=(43, i)`` to choose, the held-out
``rng=(44, i)``).  The rule, fixed before the results it ranks were
seen:

1. on seed 40, keep the variants whose geomean tuned duration is at
   most 1.01x the old default's (6, 2, 2) and whose mean evaluations
   and geomean overhead are each at most 1.02x its values;
2. on seed 43, keep those whose geomean tuned duration over both
   adaptation sessions is at most 1.01x the old default's, at each of
   300 and 500 GB at most 1.02x, and whose adaptation evaluations and
   overhead are each at most 1.02x;
3. try the survivors from the lowest mean cold session wall time up:
   the first that meets the same tolerances on seeds 41 and 44, and
   with which the paper-shape checks CI runs still pass, is used.

Step 2 and step 3's CI clause were added after a first pass without
them had picked (4, 1, 6), which failed the DAGP ablation that CI runs
and whose adaptation sessions read 2.4% worse at 300 GB on 30
diagnostic sequences (``rng=(42, i)``); the adaptation seeds are fresh
for that reason.  Variants are (samples, thin, refresh rows);
LMLs, MCMC seconds and wall seconds are per cold session, or per pair
of adaptation sessions, with one BLAS thread on a 2-vCPU host.  In the
adaptation tables, evaluations and overhead are summed over the pair.

Seed 40 (cold, sweep):

===========  =========  ======  ========  ======  ======  ======
variant      tuned (s)   evals  overhead    LMLs  MCMC s  wall s
===========  =========  ======  ========  ======  ======  ======
6, 2, 2         1195.3   102.1     88675    1902   0.103   0.386
6, 2, 3         1200.9   101.0     86256    1373   0.076   0.350
6, 2, 4         1201.9    99.7     85709    1031   0.054   0.315
6, 2, 6         1198.4   100.1     86544     892   0.049   0.321
6, 1, 2         1195.1   101.0     87496    1235   0.068   0.339
6, 1, 3         1193.7   101.4     88015     935   0.054   0.333
6, 1, 4         1194.4   100.8     87183     719   0.041   0.322
6, 1, 6         1200.7   101.0     87236     625   0.037   0.319
4, 2, 2         1198.9   100.9     88379    1637   0.093   0.346
4, 2, 3         1197.1   101.0     86421    1206   0.068   0.311
4, 2, 4         1205.7   101.5     86512     917   0.050   0.283
4, 2, 6         1199.2   100.2     86348     770   0.042   0.271
4, 1, 2         1198.4   101.4     87646    1130   0.061   0.293
4, 1, 3         1194.0   101.4     88139     842   0.047   0.281
4, 1, 4         1194.5   100.5     86397     658   0.036   0.267
4, 1, 6         1197.9   100.5     86977     559   0.031   0.260
===========  =========  ======  ========  ======  ======  ======

Seed 41 (cold, held out):

===========  =========  ======  ========  ======  ======  ======
variant      tuned (s)   evals  overhead    LMLs  MCMC s  wall s
===========  =========  ======  ========  ======  ======  ======
6, 2, 2         1201.5   102.0     96489    1908   0.112   0.425
6, 2, 3         1202.9   101.3     93784    1393   0.083   0.386
6, 2, 4         1206.3   102.0     94777    1061   0.065   0.375
6, 2, 6         1198.4   101.8     93638     927   0.057   0.366
6, 1, 2         1201.1   102.2     96113    1295   0.080   0.402
6, 1, 3         1206.8   101.5     93119     954   0.060   0.370
6, 1, 4         1211.2   102.3     94170     734   0.044   0.347
6, 1, 6         1203.3   103.0     93111     635   0.039   0.339
4, 2, 2         1203.9   101.6     94869    1667   0.094   0.352
4, 2, 3         1201.6   100.8     93638    1211   0.068   0.316
4, 2, 4         1206.4   102.1     94318     938   0.053   0.306
4, 2, 6         1202.1   101.4     93075     785   0.046   0.297
4, 1, 2         1201.7   101.7     94584    1168   0.069   0.333
4, 1, 3         1205.3   101.8     93697     853   0.051   0.305
4, 1, 4         1210.2   102.3     94964     669   0.041   0.303
4, 1, 6         1203.2   103.9     93542     576   0.035   0.292
===========  =========  ======  ========  ======  ======  ======

Seed 43 (adaptation, sweep):

===========  =======  =======  ======  ========  ======  ======  ======
variant       @300 s   @500 s   evals  overhead    LMLs  MCMC s  wall s
===========  =======  =======  ======  ========  ======  ======  ======
6, 2, 2       4018.2   7674.2    81.5    958192    2523   0.786   2.282
6, 2, 3       3978.5   7618.8    81.5    894460    1965   0.623   2.151
6, 2, 4       3858.6   7666.1    81.3    804388    1577   0.496   1.937
6, 2, 6       3994.8   7722.2    81.5    968035    1395   0.456   1.929
6, 1, 2       3916.0   7868.0    81.3    882379    1690   0.551   2.130
6, 1, 3       3964.2   7521.8    81.3    840219    1335   0.458   1.999
6, 1, 4       3929.5   7670.4    81.6    868173    1096   0.353   1.787
6, 1, 6       3964.4   7785.9    81.4    916697     988   0.316   1.777
4, 2, 2       4013.2   7639.4    81.5    938974    1947   0.625   1.677
4, 2, 3       3966.3   7738.4    81.6    864432    1523   0.511   1.586
4, 2, 4       3881.9   7722.8    81.3    829149    1255   0.407   1.441
4, 2, 6       4026.8   7628.0    81.4   1042288    1117   0.373   1.402
4, 1, 2       3979.8   7393.7    81.3    920254    1398   0.464   1.569
4, 1, 3       3927.7   7527.7    81.3    862451    1127   0.360   1.377
4, 1, 4       3943.0   7678.0    81.3    835494     949   0.304   1.323
4, 1, 6       3929.7   7626.3    81.4    911553     847   0.275   1.275
===========  =======  =======  ======  ========  ======  ======  ======

Seed 44 (adaptation, held out):

===========  =======  =======  ======  ========  ======  ======  ======
variant       @300 s   @500 s   evals  overhead    LMLs  MCMC s  wall s
===========  =======  =======  ======  ========  ======  ======  ======
6, 2, 2       3789.4   7402.8    81.4    938138    2522   0.841   2.452
6, 2, 3       3874.8   7319.0    81.4    888376    1971   0.689   2.283
6, 2, 4       3736.1   7323.3    81.5    877069    1568   0.515   2.064
6, 2, 6       3930.0   7756.7    81.4    979943    1418   0.512   2.131
6, 1, 2       3867.4   7303.4    81.4    921816    1657   0.551   2.108
6, 1, 3       3820.1   7408.7    81.3    915409    1332   0.448   1.986
6, 1, 4       3858.0   7467.1    81.5    884765    1091   0.368   1.881
6, 1, 6       3858.8   7430.8    81.4    901434     986   0.336   1.891
4, 2, 2       3825.5   7442.1    81.3    923542    1945   0.666   1.819
4, 2, 3       3880.9   7293.6    81.4    926986    1540   0.528   1.629
4, 2, 4       3818.8   7395.2    81.4    847392    1275   0.426   1.498
4, 2, 6       3883.0   7644.6    81.4    967222    1136   0.377   1.399
4, 1, 2       3812.2   7398.5    81.4    876676    1389   0.465   1.568
4, 1, 3       3808.3   7448.0    81.2    911132    1132   0.390   1.498
4, 1, 4       3847.8   7545.5    81.5    878914     945   0.315   1.367
4, 1, 6       3805.9   7375.2    81.4    876831     855   0.293   1.335
===========  =======  =======  ======  ========  ======  ======  ======

Every variant met step 1.  Step 2 dropped (6, 1, 2), 2.5% worse at
500 GB, and (4, 2, 6), 8.8% higher in overhead.  In order of cold
wall time, (4, 1, 6) then met the tolerances on both held-out seeds
but failed the DAGP ablation that CI runs (at its seed 5, DAGP against
no transfer 1.81x in mean duration, limit 1.35x), and (4, 1, 4) failed
seed 44 (+1.5% and +1.9% at 300 and 500 GB).  So the budget in use
is 4 samples, no thinning and a draw every 3 rows: LOCAT's default
``n_mcmc`` is 4, the chain keeps every state after burn-in, and a cold
session runs 842 likelihood evaluations instead of 1,902 at 27-28%
less wall time.  Against the old default it read
-0.1% and +0.3% in cold tuned duration, and -2.1% and +0.6% over the
adaptation sessions, on the sweep and held-out seeds.  Whether still
fewer samples marginalize anything is left to an EI-MCMC ablation over
seeds.
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
    rng: int | np.random.Generator | None = None,
    initial_theta: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Posterior samples of the GP hyper-parameter vector from one
    slice-sampling chain; returns ``(samples, final_state)``.

    ``initial_theta`` warm-starts the chain (defaults to the GP's
    current hyper-parameters); the returned ``final_state`` is the
    chain's last state, which a later call can resume from with a much
    smaller ``burn_in``.  The GP is never mutated.

    The chain runs ``burn_in + n_samples`` coordinate updates and
    collects every state after burn-in, unthinned (the sweep above):
    exactly ``n_samples`` log-space vectors.
    """
    if not gp.is_fitted:
        raise RuntimeError("GP must be fitted before sampling hyper-parameters")
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
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
    for step in range(burn_in + n_samples):
        index = int(gen.integers(0, theta.shape[0]))
        theta = _slice_sample_coordinate(gp, theta, index, gen)
        if step >= burn_in:
            samples.append(theta.copy())
    return samples, theta.copy()
