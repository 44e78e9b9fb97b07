"""Datasize-Aware Gaussian Process (paper section 3.4).

DAGP models execution time as ``t = f(conf, ds)`` (equation (7)): the GP
input is the tuned representation of the configuration (raw encoded
parameters or IICP latents) concatenated with a normalized datasize
coordinate.  Because datasize is part of the input, observations at one
datasize inform predictions at another — the property that lets LOCAT
avoid re-tuning when the input data grows.

Execution times are modelled in log space: the simulator's (and real
Spark's) response surface is multiplicative (penalties compound), and a
log-space GP is far better calibrated on such targets.

Cross-application transfer extends the same idea one axis further: when
``fit`` receives per-observation *fidelities*, the GP input gains a
fidelity coordinate (0 for the target application's own observations, 1
for observations transplanted from a donor tenant) and donor rows get
inflated observation noise.  Distance along the fidelity axis lets the
kernel absorb the systematic bias between the two applications exactly
as the datasize coordinate absorbs size effects, while the extra noise
keeps donor rows advisory — predictions and acquisition always query at
fidelity 0, so the target's own observations dominate wherever they
exist.  With no fidelities (or all zeros) the model is bit-for-bit the
pre-transfer DAGP.

The class implements the surrogate-engine lifecycle:

* ``fit`` trains from scratch — full factorization, a cold slice-
  sampling chain, and one :class:`~repro.surrogate.stack.ModelStack`
  holding the ``n_mcmc`` per-sample ``(alpha, K^-1)`` states.
* ``extend`` appends observations incrementally: the base GP and every
  stacked model grow by an exact rank-k update.  Once
  ``MCMC_REFRESH_ROWS`` (3) rows have arrived since the last draw, the
  hyper-parameters are re-sampled by resuming the previous chain with a
  short burn-in; in between, the posterior samples are kept and merely
  extended — the chain and the dominant O(n^3)-per-theta refactorization
  are paid once every three rows.
* ``acquisition`` evaluates the marginalized EI over all samples in one
  vectorized pass (no per-clone Python loop).
"""

from __future__ import annotations

import numpy as np

from repro.bo.acquisition import expected_improvement
from repro.bo.gp import GaussianProcess
from repro.bo.kernels import Matern52Kernel
from repro.bo.mcmc import slice_sample_chain
from repro.stats.sampling import ensure_rng
from repro.surrogate.stack import ModelStack

#: Datasize normalization reference: 1 TB, the largest size the paper uses.
DATASIZE_REFERENCE_GB = 1024.0

#: Extra observation-noise variance (standardized log-duration units) a
#: fidelity-1 (donor) row carries.  Standardized targets have unit
#: variance, so 0.5 makes a donor observation worth roughly "one soft
#: hint": enough to shape the prior where the target has no data, never
#: enough to outvote a real observation nearby.
TRANSFER_NOISE_VARIANCE = 0.5

#: Burn-in of a fresh hyper-parameter chain, which starts from the GP's
#: own hyper-parameters (the sweep behind the value is in
#: :mod:`repro.bo.mcmc`).
MCMC_BURN_IN = 10

#: Burn-in of a resumed hyper-parameter chain.  A refresh continues the
#: previous chain from its final state, which already sits in the
#: posterior of an almost identical training set, so a handful of
#: updates decorrelates it — against :data:`MCMC_BURN_IN` for a fresh one.
MCMC_WARM_BURN_IN = 4

#: How many appended rows may reuse the current hyper-parameter samples
#: before they are drawn again.  A few new observations barely move the
#: hyper-parameter posterior, and each draw runs a chain and
#: re-factorizes ``n_mcmc`` models.  Chosen together with LOCAT's 4
#: samples and the unthinned chain by the sweep in :mod:`repro.bo.mcmc`;
#: against the earlier draw every 2 rows (6 samples, thinned by 2),
#: cold TPC-DS sessions and the DAGP adaptation sessions after them
#: keep their tuned duration, evaluations and simulated overhead within
#: tolerance, and a cold session runs 842 likelihood evaluations
#: instead of 1,902.
MCMC_REFRESH_ROWS = 3


def datasize_coordinate(datasize_gb: float | np.ndarray) -> np.ndarray:
    """Map datasize in GB to a [0, ~1] GP input coordinate (linear in TB).

    This is the surrogate's *feature scaling*, not datasize identity —
    histories are keyed by :func:`repro.core.datasize.normalize_datasize`.
    """
    return np.asarray(datasize_gb, dtype=float) / DATASIZE_REFERENCE_GB


def _stack_factorizes(gp, theta: np.ndarray) -> bool:
    """Whether a one-sample stack of ``gp`` at ``theta`` factorizes."""
    try:
        ModelStack.from_gp(gp, [theta])
    except np.linalg.LinAlgError:
        return False
    return True


class DatasizeAwareGP:
    """GP over (configuration representation, datasize) -> log time.

    ``n_mcmc`` controls the EI-MCMC marginalization: acquisition values
    are averaged over that many posterior hyper-parameter samples (0
    disables marginalization and uses the current point estimate).
    The GP underneath is exact at every history size.
    """

    def __init__(
        self,
        config_dim: int,
        n_mcmc: int = 8,
        noise_variance: float = 1e-3,
        transfer_noise_variance: float = TRANSFER_NOISE_VARIANCE,
    ):
        if config_dim <= 0:
            raise ValueError("config_dim must be positive")
        if transfer_noise_variance < 0:
            raise ValueError("transfer_noise_variance must be non-negative")
        self.config_dim = config_dim
        self.n_mcmc = n_mcmc
        self.noise_variance = float(noise_variance)
        self.transfer_noise_variance = float(transfer_noise_variance)
        kernel = Matern52Kernel(dim=config_dim + 1, lengthscale=0.5)
        self.gp = GaussianProcess(kernel, noise_variance=noise_variance)
        self._x: np.ndarray | None = None
        self._log_t: np.ndarray | None = None
        self._datasizes_gb: np.ndarray | None = None
        self._fidelities: np.ndarray | None = None
        self._theta_samples: list[np.ndarray] = []
        self._stack: ModelStack | None = None
        #: Final state of the last hyper-parameter chain (resumed by the
        #: next refresh) and the history length that chain saw.
        self._mcmc_state: np.ndarray | None = None
        self._rows_at_draw = 0
        #: True when the fitted inputs carry the transfer fidelity column.
        self._with_fidelity = False

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    @staticmethod
    def _join(config_points: np.ndarray, datasizes_gb: np.ndarray) -> np.ndarray:
        config_points = np.atleast_2d(np.asarray(config_points, dtype=float))
        ds = datasize_coordinate(np.asarray(datasizes_gb, dtype=float).ravel())
        if config_points.shape[0] != ds.shape[0]:
            raise ValueError("config_points and datasizes must have equal length")
        return np.hstack([config_points, ds[:, None]])

    def _rebuild_kernel(self, with_fidelity: bool) -> None:
        """Swap the fidelity column in or out, carrying learned theta over.

        The kernel is rebuilt at the new input dimension, but the signal
        variance, the shared (config + datasize) lengthscales, and the
        observation noise keep their current — possibly learned — values
        instead of snapping back to the constructor defaults.  Only the
        fidelity axis itself starts at the default lengthscale.
        """
        old_kernel = self.gp.kernel
        dim = self.config_dim + (2 if with_fidelity else 1)
        kernel = Matern52Kernel(dim=dim, lengthscale=0.5)
        kernel.signal_variance = old_kernel.signal_variance
        shared = min(self.config_dim + 1, old_kernel.dim, dim)
        kernel.lengthscales[:shared] = old_kernel.lengthscales[:shared]
        self.gp = GaussianProcess(kernel, noise_variance=self.gp.noise_variance)
        self._with_fidelity = with_fidelity

    @staticmethod
    def _validate_fidelities(fidelities, n_rows: int) -> np.ndarray | None:
        if fidelities is None:
            return None
        fidelities = np.asarray(fidelities, dtype=float).ravel()
        if fidelities.shape[0] != n_rows:
            raise ValueError("fidelities must have one value per observation")
        if np.any(fidelities < 0):
            raise ValueError("fidelities must be non-negative")
        return fidelities

    def _sample_hyperparameters(
        self, rng: int | np.random.Generator | None, resume: bool
    ) -> None:
        """(Re-)sample the hyper-parameter posterior and rebuild the stack.

        ``resume=True`` continues the previous chain from its final state
        with the short :data:`MCMC_WARM_BURN_IN`; otherwise the chain
        starts from the GP's own hyper-parameters with
        :data:`MCMC_BURN_IN`.
        """
        resume = resume and self._mcmc_state is not None
        self._theta_samples, self._mcmc_state = slice_sample_chain(
            self.gp,
            n_samples=self.n_mcmc,
            burn_in=MCMC_WARM_BURN_IN if resume else MCMC_BURN_IN,
            rng=ensure_rng(rng),
            initial_theta=self._mcmc_state if resume else None,
        )
        try:
            self._stack = ModelStack.from_gp(self.gp, self._theta_samples)
        except np.linalg.LinAlgError:
            # The chain's likelihood builds each covariance along one
            # coordinate, the stack builds the full kernel, and the two
            # round differently: a sample next to a singular covariance
            # can pass the first and fail the second.  Keep the samples
            # the stack can factorize, or else the GP's own fitted
            # hyper-parameters.
            kept = [t for t in self._theta_samples if _stack_factorizes(self.gp, t)]
            self._theta_samples = kept or [self.gp.get_theta().copy()]
            self._stack = ModelStack.from_gp(self.gp, self._theta_samples)
        self._rows_at_draw = self.n_observations

    def fit(
        self,
        config_points: np.ndarray,
        datasizes_gb: np.ndarray,
        durations_s: np.ndarray,
        rng: int | np.random.Generator | None = None,
        fidelities: np.ndarray | None = None,
    ) -> "DatasizeAwareGP":
        """Fit on X_E = {conf, ds} with targets log(t) (equations (8)-(10)).

        ``fidelities`` (optional, one value per observation, 0 = the
        target application's own data, 1 = transplanted donor data)
        switches on the transfer extension: the GP input gains a
        fidelity coordinate and each row's observation noise is
        inflated by ``transfer_noise_variance * fidelity``.  ``None``
        or all-zero fidelities reproduce the plain DAGP exactly.
        """
        durations = np.asarray(durations_s, dtype=float).ravel()
        if np.any(durations <= 0):
            raise ValueError("durations must be positive")
        x = self._join(config_points, datasizes_gb)
        if x.shape[1] != self.config_dim + 1:
            raise ValueError(f"expected config dim {self.config_dim}, got {x.shape[1] - 1}")

        fidelities = self._validate_fidelities(fidelities, x.shape[0])
        with_fidelity = fidelities is not None and bool(np.any(fidelities > 0))
        if with_fidelity != self._with_fidelity:
            self._rebuild_kernel(with_fidelity)
        extra_noise = None
        if with_fidelity:
            x = np.hstack([x, fidelities[:, None]])
            extra_noise = self.transfer_noise_variance * fidelities

        self._x = x
        self._log_t = np.log(durations)
        self._datasizes_gb = np.asarray(datasizes_gb, dtype=float).ravel().copy()
        self._fidelities = (
            fidelities.copy() if fidelities is not None else np.zeros(x.shape[0])
        )
        self.gp.fit(x, self._log_t, extra_noise=extra_noise)
        self._mcmc_state = None
        if self.n_mcmc > 0 and x.shape[0] >= 4:
            self._sample_hyperparameters(rng, resume=False)
        else:
            self._theta_samples = []
            self._stack = None
        return self

    def extend(
        self,
        config_points: np.ndarray,
        datasizes_gb: np.ndarray,
        durations_s: np.ndarray,
        rng: int | np.random.Generator | None = None,
        fidelities: np.ndarray | None = None,
    ) -> "DatasizeAwareGP":
        """Append observations incrementally (exact rank-k updates).

        ``extend`` is algebraically exact: the posterior afterwards
        equals that of a from-scratch :meth:`fit` on the concatenated
        data, up to floating-point round-off (see
        :func:`~repro.surrogate.incremental.cholesky_append`).  The base
        GP and every stacked per-sample model grow by a rank-k update —
        O(n^2 k) per model instead of a refit — and the
        hyper-parameters are re-sampled, resuming the previous chain,
        once :data:`MCMC_REFRESH_ROWS` rows have arrived since the last
        draw; in between, the existing posterior samples are reused.

        New rows default to fidelity 0 (the caller's own observations).
        Toggling the fidelity column on or off relative to the fitted
        state cannot be expressed as a rank-k update (the input
        dimensionality changes), so that rare case falls back to a full
        refit over the concatenated data.
        """
        if not self.is_fitted:
            return self.fit(
                config_points, datasizes_gb, durations_s, rng=rng, fidelities=fidelities
            )
        durations = np.asarray(durations_s, dtype=float).ravel()
        if np.any(durations <= 0):
            raise ValueError("durations must be positive")
        x = self._join(config_points, datasizes_gb)
        if x.shape[1] != self.config_dim + 1:
            raise ValueError(f"expected config dim {self.config_dim}, got {x.shape[1] - 1}")
        fidelities = self._validate_fidelities(fidelities, x.shape[0])
        new_fid = fidelities if fidelities is not None else np.zeros(x.shape[0])

        if bool(np.any(new_fid > 0)) and not self._with_fidelity:
            # Dimensionality change (fidelity column toggles on):
            # replay everything through fit().
            all_configs = np.vstack([self._x[:, : self.config_dim], x[:, : self.config_dim]])
            return self.fit(
                all_configs,
                np.concatenate([self._datasizes_gb, np.asarray(datasizes_gb, dtype=float).ravel()]),
                np.concatenate([np.exp(self._log_t), durations]),
                rng=rng,
                fidelities=np.concatenate([self._fidelities, new_fid]),
            )

        extra_noise = None
        if self._with_fidelity:
            x = np.hstack([x, new_fid[:, None]])
            extra_noise = self.transfer_noise_variance * new_fid

        self.gp.extend(x, np.log(durations), extra_noise=extra_noise)
        self._x = np.vstack([self._x, x])
        self._log_t = np.concatenate([self._log_t, np.log(durations)])
        self._datasizes_gb = np.concatenate(
            [self._datasizes_gb, np.asarray(datasizes_gb, dtype=float).ravel()]
        )
        self._fidelities = np.concatenate([self._fidelities, new_fid])

        if self.n_mcmc > 0 and self._x.shape[0] >= 4:
            # The samples are drawn again every MCMC_REFRESH_ROWS rows;
            # in between, the stacked models are extended in place.
            grown = self.n_observations - self._rows_at_draw
            if self._stack is None or grown >= MCMC_REFRESH_ROWS:
                self._sample_hyperparameters(rng, resume=True)
            else:
                try:
                    self._stack.extend(
                        x,
                        self.gp.standardized_targets,
                        self.gp.target_mean,
                        self.gp.target_std,
                        extra_noise_new=extra_noise,
                    )
                except np.linalg.LinAlgError:
                    # A sample whose grown covariance is no longer
                    # positive definite: draw the samples again now.
                    self._sample_hyperparameters(rng, resume=True)
        return self

    @property
    def is_fitted(self) -> bool:
        return self._x is not None

    @property
    def n_observations(self) -> int:
        return 0 if self._x is None else self._x.shape[0]

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _query_inputs(self, config_points: np.ndarray, datasize_gb: float) -> np.ndarray:
        config_points = np.atleast_2d(np.asarray(config_points, dtype=float))
        ds = np.full(config_points.shape[0], float(datasize_gb))
        x = self._join(config_points, ds)
        if self._with_fidelity:
            # Queries are always about the target application itself.
            x = np.hstack([x, np.zeros((x.shape[0], 1))])
        return x

    def predict(
        self,
        config_points: np.ndarray,
        datasize_gb: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean/std of log execution time at one datasize."""
        if not self.is_fitted:
            raise RuntimeError("predict() called before fit()")
        return self.gp.predict(self._query_inputs(config_points, datasize_gb))

    def predict_duration(self, config_points: np.ndarray, datasize_gb: float) -> np.ndarray:
        """Posterior median execution time in seconds.

        The online drift path consumes :meth:`predict` directly (via
        :meth:`repro.core.locat.LOCAT.predict_log_duration`) and
        standardizes residuals in
        :class:`repro.core.drift.DurationPrediction`, where the
        deploy-time calibration offset and the detector-side std floor
        and clipping live — keep that the single z-score
        implementation.
        """
        mean, _ = self.predict(config_points, datasize_gb)
        return np.exp(mean)

    # ------------------------------------------------------------------
    # EI-MCMC acquisition
    # ------------------------------------------------------------------
    def acquisition(
        self,
        config_points: np.ndarray,
        datasize_gb: float,
        best_duration_s: float,
    ) -> np.ndarray:
        """EI (to maximize) marginalized over hyper-parameter samples.

        ``best_duration_s`` is the incumbent at the *target datasize*;
        EI is computed on log durations for scale robustness.  With
        posterior samples present, all ``n_mcmc`` models are evaluated
        in one vectorized :class:`~repro.surrogate.stack.ModelStack`
        pass.
        """
        if not self.is_fitted:
            raise RuntimeError("acquisition() called before fit()")
        x = self._query_inputs(config_points, datasize_gb)
        best_log = float(np.log(max(best_duration_s, 1e-9)))

        if self._stack is None:
            mean, std = self.gp.predict(x)
            return expected_improvement(mean, std, best_log)
        return self._stack.acquisition(x, best_log)
