"""The LOCAT orchestrator (paper Figure 3).

Pipeline for the first tuning session:

1. **Bootstrap sampling** — run the full application ``n_qcsa`` times
   (3 LHS start points, then BO iterations over the full encoded space).
   These runs double as QCSA's matrix S and IICP's matrix S', exactly as
   the paper notes in sections 5.1 and 5.3 ("we leverage the samples
   performed by the BO iterations").
2. **QCSA** — per-query CVs over the bootstrap runs; drop the CIQ band;
   the survivors form the RQA.
3. **IICP** — CPS (Spearman over the first ``n_iicp`` samples) + CPE
   (Gaussian-kernel KPCA), producing the latent tuning space.
4. **DAGP BO** — EI-MCMC Bayesian optimization in the latent space,
   evaluating only the RQA, warm-started with the bootstrap samples
   (re-targeted to their CSQ-subset durations), until the EI stop rule.
   The KPCA manifold is refit on all observed configurations every
   ``REFIT_INTERVAL`` iterations so the latent space grows to cover the
   regions BO explores — with a fixed 20-sample manifold the pre-image
   could only reach configurations "between" the bootstrap points.
5. **Validation** — the best configuration is re-run on the full
   application; that run is the reported best duration.

Subsequent ``tune()`` calls at different datasizes skip steps 1-3 and
warm-start step 4 from the full observation history — the DAGP models
``t = f(conf, ds)``, so knowledge transfers across datasizes and the
expensive bootstrap is paid only once.  Ablation switches: ``use_iicp``
(tune all 38 parameters), ``use_dagp`` (disables cross-datasize
transfer) and ``use_polish`` (skips the coordinate polish).

**Cross-application transfer** (``transfer_from=``): given a
:class:`~repro.transfer.donor.TransferPlan` built from a similar
tenant's persisted history, step 1 shrinks to ``N_TRANSFER_BOOTSTRAP``
runs — just enough for QCSA and a provisional CPS.  The donor's
importance profile is then checked against the provisional one
(:func:`~repro.transfer.donor.cps_agreement`) and the refined workload
fingerprint re-scored; on acceptance the donor's CPS selection is
merged in and its observations enter step 4 as a bias-corrected,
low-fidelity GP prior (fidelity column + inflated noise, see
:mod:`repro.core.dagp`), on rejection the bootstrap completes to the
full ``n_qcsa`` cold budget.  ``transfer_from=None`` is bit-for-bit the
cold start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.dagp import DatasizeAwareGP
from repro.core.datasize import normalize_datasize
from repro.core.iicp import (
    CPEResult,
    CPSResult,
    DEFAULT_N_IICP,
    IICPResult,
    run_cpe,
    run_cps,
)
from repro.core.objective import SparkSQLObjective, Trial
from repro.core.parallel import EvalRequest, ParallelEvaluator
from repro.core.qcsa import DEFAULT_N_QCSA, QCSAResult, analyze_samples
from repro.core.result import TuningResult
from repro.core.tuner import BOLoop, DEFAULT_EI_THRESHOLD, DEFAULT_MIN_ITERATIONS
from repro.replay.trace import (
    DEFAULT_N_REPLAYS,
    DEFAULT_TRACE_CAPACITY,
    MIN_TRACE_STEPS,
    REPLAY_EVAL_MODES,
    ReplayTrace,
)
from repro.sparksim.configspace import Configuration
from repro.sparksim.engine import SparkSQLSimulator
from repro.sparksim.query import Application
from repro.sparksim.serialize import canonical_key
from repro.stats.sampling import ensure_rng

if TYPE_CHECKING:
    from repro.transfer.donor import TransferPlan

#: Bootstrap budget of a transfer warm start: enough full-application
#: runs for QCSA CVs and a provisional CPS, a fraction of DEFAULT_N_QCSA.
N_TRANSFER_BOOTSTRAP = 8

#: BO iterations between two refits of the KPCA manifold in a session.
REFIT_INTERVAL = 8

#: Fewest observations :meth:`LOCAT.restore` accepts, and the fewest the
#: monitoring predictor fits on: every restored tenant can check its
#: production runs against the model from its first observe on.
MIN_RESTORE_OBSERVATIONS = 3


@dataclass
class _Observation:
    """One observed configuration with its RQA-equivalent duration."""

    config: Configuration
    datasize_gb: float
    rqa_duration_s: float


class LOCAT:
    """Low-Overhead Online Configuration Auto-Tuning for Spark SQL."""

    NAME = "LOCAT"

    def __init__(
        self,
        simulator: SparkSQLSimulator,
        app: Application,
        n_qcsa: int = DEFAULT_N_QCSA,
        n_iicp: int = DEFAULT_N_IICP,
        min_iterations: int = DEFAULT_MIN_ITERATIONS,
        max_iterations: int = 25,
        ei_threshold: float = DEFAULT_EI_THRESHOLD,
        n_mcmc: int = 4,
        use_iicp: bool = True,
        use_dagp: bool = True,
        use_polish: bool = True,
        n_workers: int = 1,
        transfer_from: TransferPlan | None = None,
        n_adapt_iterations: int | None = None,
        replay_eval: str = "off",
        replay_capacity: int = DEFAULT_TRACE_CAPACITY,
        n_replays: int = DEFAULT_N_REPLAYS,
        rng: int | np.random.Generator | None = None,
    ):
        self.simulator = simulator
        self.app = app
        self.n_qcsa = n_qcsa
        self.n_iicp = n_iicp
        self.min_iterations = min_iterations
        self.max_iterations = max_iterations
        self.ei_threshold = ei_threshold
        self.n_mcmc = n_mcmc
        self.use_iicp = use_iicp
        self.use_dagp = use_dagp
        self.use_polish = use_polish
        self.n_workers = int(n_workers)
        self.transfer_from = transfer_from
        if n_adapt_iterations is not None and int(n_adapt_iterations) < 1:
            raise ValueError("n_adapt_iterations must be at least 1")
        #: BO budget of a drift-triggered :meth:`adapt` session; None
        #: derives about a third of the full budget.
        self._n_adapt_iterations = (
            None if n_adapt_iterations is None else int(n_adapt_iterations)
        )
        if replay_eval not in REPLAY_EVAL_MODES:
            raise ValueError(
                f"replay_eval must be one of {REPLAY_EVAL_MODES}, got {replay_eval!r}"
            )
        #: Replay-based candidate evaluation for partial (drift) retunes:
        #: "off" is bit-for-bit the historic behaviour; "race" scores BO
        #: candidates on CRN replays of the recorded trace and races the
        #: finalists, so only the survivor is measured live.
        self.replay_eval = replay_eval
        if int(n_replays) < 1:
            raise ValueError("n_replays must be at least 1")
        self.n_replays = int(n_replays)
        #: Recorded production history replays are resampled from.
        self.replay_trace = ReplayTrace(capacity=int(replay_capacity))
        self._replay_sessions = 0
        #: Cached point-estimate DAGP over the observation history, used
        #: by :meth:`predict_log_duration` (the online drift path).
        self._predictor: DatasizeAwareGP | None = None
        self._predictor_iicp: IICPResult | None = None
        self._predictor_count = 0
        self._predictor_boundary = 0
        #: Index below which observations predate the latest drift
        #: retune (set by partial :meth:`adapt` sessions).  The
        #: environment shifted at that boundary, so the monitoring
        #: predictor demotes older rows to the low-fidelity prior —
        #: the same quarantine the session surrogate applies — instead
        #: of blending stale-environment durations at full weight.
        #: Persisted with the deployed state (the calibration offset
        #: was anchored against the quarantined predictor, so the two
        #: must survive a restart together) and restored via
        #: :meth:`restore_stale_boundary`.
        self._stale_before = 0
        #: The same boundary in objective-trial indices (in-process
        #: only — a restarted objective starts with an empty history,
        #: so every restored trial index is post-restart by
        #: construction).
        self._stale_trials_before = 0
        #: Bias-corrected donor observations (never persisted, never in
        #: :attr:`observation_history`); filled by a transfer bootstrap.
        self._transfer_observations: list[_Observation] = []
        self._transfer_anchor_measured = False
        self.transfer_accepted: bool | None = None
        self.transfer_agreement: float | None = None
        self.transfer_similarity: float | None = None
        self.rng = ensure_rng(rng)

        self.objective = SparkSQLObjective(simulator, app, rng=self.rng)
        # n_workers=1 delegates to the plain serial objective calls, so
        # seeded single-worker sessions reproduce the serial trajectory
        # exactly; n_workers>1 runs each BO batch concurrently.
        self.evaluator = ParallelEvaluator(self.objective, n_workers=self.n_workers)
        self.qcsa_result: QCSAResult | None = None
        self.iicp_result: IICPResult | None = None
        #: How many observations :attr:`iicp_result` was fit on.
        self._n_latent_observations = 0
        self._observations: list[_Observation] = []

    # ------------------------------------------------------------------
    # Bootstrap: sample collection + QCSA + IICP
    # ------------------------------------------------------------------
    @property
    def is_bootstrapped(self) -> bool:
        return self.iicp_result is not None

    @property
    def csq(self) -> list[str]:
        """The configuration-sensitive queries (RQA query list)."""
        if self.qcsa_result is not None:
            return list(self.qcsa_result.csq)
        return self.app.query_names

    @property
    def transfer_state(self) -> str:
        """``none`` | ``pending`` | ``accepted`` | ``rejected``."""
        if self.transfer_from is None:
            return "none"
        if self.transfer_accepted is None:
            return "pending"
        return "accepted" if self.transfer_accepted else "rejected"

    def _collect_bootstrap_samples(
        self, datasize_gb: float, n_iterations: int, warm_trials: list[Trial] | None = None
    ) -> list[Trial]:
        """Run ``n_iterations`` full-application bootstrap samples.

        A small LHS design followed by full-space BO, exactly the cold
        bootstrap's sampling loop; ``warm_trials`` seeds the surrogate
        when a rejected transfer completes an already-started bootstrap.
        Returns the objective's full trial history.
        """
        space = self.objective.space

        def evaluate(point: np.ndarray, ds: float) -> float:
            return self.objective.run(space.decode(point), ds).duration_s

        def evaluate_batch(points: np.ndarray, ds: float) -> np.ndarray:
            requests = [EvalRequest(space.decode(p), ds) for p in np.atleast_2d(points)]
            trials = self.evaluator.run_batch(requests)
            return np.array([t.duration_s for t in trials])

        warm_kwargs = {}
        if warm_trials:
            warm_kwargs = dict(
                warm_points=np.stack([space.encode(t.config) for t in warm_trials]),
                warm_datasizes=np.array([t.datasize_gb for t in warm_trials]),
                warm_durations=np.array([t.duration_s for t in warm_trials]),
            )
        loop = BOLoop(
            dim=space.dim,
            n_init=6,
            min_iterations=n_iterations,  # no early stop during bootstrap
            max_iterations=n_iterations,
            ei_threshold=0.0,
            n_mcmc=min(self.n_mcmc, 4),
            n_candidates=192,
            batch_size=self.n_workers,
            rng=self.rng,
        )
        loop.minimize(
            evaluate,
            datasize_gb,
            evaluate_batch=evaluate_batch if self.n_workers > 1 else None,
            **warm_kwargs,
        )
        return list(self.objective.history)

    @staticmethod
    def _qcsa_over(app: Application, trials: list[Trial]) -> QCSAResult:
        samples = {q: [] for q in app.query_names}
        for trial in trials:
            for query in trial.metrics.queries:
                samples[query.name].append(query.duration_s)
        return analyze_samples(samples)

    def _cps_over(self, trials: list[Trial]) -> CPSResult:
        return run_cps(
            self.objective.space, [t.config for t in trials], [t.duration_s for t in trials]
        )

    def bootstrap(self, datasize_gb: float) -> None:
        """Collect the initial full-application samples and run QCSA/IICP.

        Following the paper (sections 5.1, 5.3), the N_QCSA samples are
        the executions performed by the BO iterations themselves — a
        small LHS design followed by full-space BO.  Because BO starts
        exploiting after a handful of runs, the samples get cheaper as
        the bootstrap proceeds, which is what keeps LOCAT's total
        optimization time an order of magnitude below approaches that
        collect large random corpora.  Without a donor, CPS runs over
        the first ``n_iicp`` samples (20 suffice, Figure 9).

        With a :attr:`transfer_from` plan the first draw shrinks to
        ``N_TRANSFER_BOOTSTRAP`` runs and :meth:`_accept_transfer`
        checks the donor.  On acceptance the donor's CPS selection is
        merged in and its history fills the gap; on rejection the
        bootstrap completes to the full ``n_qcsa`` budget, warm-started
        from the samples already collected — the tenant ends up with a
        normal cold bootstrap, just reordered.
        """
        if self.is_bootstrapped:
            return
        datasize_gb = normalize_datasize(datasize_gb)
        n_first = self.n_qcsa
        if self.transfer_from is not None:
            n_first = min(N_TRANSFER_BOOTSTRAP, self.n_qcsa)
        trials = self._collect_bootstrap_samples(datasize_gb, n_first)
        # QCSA first: a transfer check rates the donor in RQA units.
        self.qcsa_result = self._qcsa_over(self.app, trials)
        cps = None if self.transfer_from is None else self._accept_transfer(trials)
        if cps is None and n_first < self.n_qcsa:
            trials = self._collect_bootstrap_samples(
                datasize_gb, self.n_qcsa - n_first, warm_trials=trials
            )
            self.qcsa_result = self._qcsa_over(self.app, trials)
        if cps is None and self.use_iicp:
            cps = self._cps_over(trials[: self.n_iicp or len(trials)])

        csq = self.csq
        self._observations = [
            _Observation(
                config=trial.config,
                datasize_gb=trial.datasize_gb,
                rqa_duration_s=max(trial.metrics.duration_of(csq), 1e-3),
            )
            for trial in trials
        ]
        self._build_latent_space(cps)

    def _accept_transfer(self, trials: list[Trial]) -> CPSResult | None:
        """Check the :attr:`transfer_from` donor against the first samples.

        The donor passes when its persisted importance profile agrees
        with the provisional CPS over ``trials`` and the workload
        fingerprint, re-scored with the dynamic (seconds-per-GB)
        component the samples provide, stays similar.  On acceptance
        the donor's observations become a low-fidelity GP prior and the
        merged CPS selection is returned; on rejection, None.
        """
        from repro.transfer.donor import cps_agreement
        from repro.transfer.fingerprint import WorkloadFingerprint, fingerprint_similarity

        plan = self.transfer_from
        assert plan is not None
        space = self.objective.space
        own_cps = self._cps_over(trials)
        self.transfer_agreement = cps_agreement(own_cps, plan.cps)
        # The fingerprint's dynamic part must be RQA seconds-per-GB, the
        # same units the donor's persisted tuning rows carry —
        # full-application rates would systematically deflate the
        # similarity of a genuinely identical workload.
        csq = self.csq
        fingerprint = WorkloadFingerprint.from_application(self.app).with_observations(
            [t.datasize_gb for t in trials],
            [t.metrics.duration_of(csq) for t in trials],
        )
        self.transfer_similarity = fingerprint_similarity(fingerprint, plan.fingerprint)
        self.transfer_accepted = (
            self.transfer_agreement >= plan.min_agreement
            and self.transfer_similarity >= plan.min_similarity
        )
        if not self.transfer_accepted:
            return None

        # Bias correction: align the donor's median log duration to the
        # median of the target's own RQA durations, so only the donor's
        # relative preferences — which configurations were faster than
        # which — transfer, not its scale.
        own_median = float(
            np.median([np.log(max(t.metrics.duration_of(csq), 1e-3)) for t in trials])
        )
        donor_median = float(
            np.median([np.log(max(dur, 1e-3)) for _, _, dur in plan.observations])
        )
        scale = float(np.exp(own_median - donor_median))
        self._transfer_observations = [
            _Observation(
                config=config,
                datasize_gb=normalize_datasize(ds),
                rqa_duration_s=max(float(dur) * scale, 1e-3),
            )
            for config, ds, dur in plan.observations
        ]
        keep = set(own_cps.selected) | set(plan.cps.selected)
        return CPSResult(
            scc=own_cps.scc,
            selected=tuple(n for n in space.names if n in keep),
            threshold=own_cps.threshold,
        )

    def _latent_dim_cap(self, n_selected: int) -> int:
        """CPE keeps about a third of the original parameters (Figure 10)."""
        return min(15, max(5, n_selected // 2))

    def _build_latent_space(self, cps: CPSResult | None = None) -> None:
        """(Re)build :attr:`iicp_result`, the latent tuning space.

        CPE runs here and nowhere else: Gaussian KPCA over every
        configuration observed so far, restricted to ``cps`` (default:
        the current selection), at the :meth:`_latent_dim_cap` size.
        Every executed configuration is then a manifold training point,
        so encode/decode round-trips are exact for all warm
        observations.  The decode base is the best configuration found:
        parameters outside the CPS selection keep their best-known
        values (rather than Spark defaults), so the latent codec
        reconstructs the incumbent exactly and local moves around it
        stay local.  A refit with no observation since the last build
        is skipped, since it would fit the same manifold.  The
        all-parameters ablation (``use_iicp=False``) keeps its one
        identity space.
        """
        space = self.objective.space
        if not self.use_iicp:
            self.iicp_result = self.iicp_result or _identity_iicp(space)
            return
        if cps is None:
            assert self.iicp_result is not None
            if self._n_latent_observations == len(self._observations):
                # Same rows, same manifold.  The monitoring predictor
                # is still dropped, so it refits (fresh hyperparameters)
                # instead of extending, as after a rebuild.
                self._predictor = None
                return
            cps = self.iicp_result.cps
        cpe = run_cpe(
            space,
            [o.config for o in self._observations],
            cps,
            n_components=self._latent_dim_cap(len(cps.selected)),
        )
        self.iicp_result = IICPResult(
            cps=cps, cpe=cpe, space=space, base_config=self._best_observation().config
        )
        self._n_latent_observations = len(self._observations)

    # ------------------------------------------------------------------
    # Persistence hooks (used by the tuning service)
    # ------------------------------------------------------------------
    @property
    def observation_history(self) -> list[tuple[Configuration, float, float]]:
        """Every ``(config, datasize_gb, rqa_duration_s)`` observed so far.

        The list is append-only across tuning sessions, so a caller can
        persist just the tail it has not seen yet; feeding the full list
        back into :meth:`restore` reproduces the tuner's knowledge.
        """
        return [(o.config, o.datasize_gb, o.rqa_duration_s) for o in self._observations]

    def restore(
        self,
        qcsa_result: QCSAResult | None,
        cps,
        observations: list[tuple[Configuration, float, float]],
    ) -> None:
        """Warm-start from a persisted tuning history, skipping the bootstrap.

        ``observations`` are ``(config, datasize_gb, rqa_duration_s)``
        tuples as returned by :attr:`observation_history`; ``cps`` is the
        persisted :class:`~repro.core.iicp.CPSResult`.  The CPE manifold
        is not persisted — :meth:`_build_latent_space` fits it over the
        restored observations, as :meth:`tune` refits it every
        ``REFIT_INTERVAL`` iterations — so the only artifacts a store
        must keep are the QCSA split, the CPS selection, and the run
        table.  After this call :attr:`is_bootstrapped` is true and the
        next :meth:`tune` goes straight to DAGP BO.
        """
        if self.is_bootstrapped:
            raise RuntimeError("cannot restore into a bootstrapped LOCAT")
        observations = list(observations)
        if len(observations) < MIN_RESTORE_OBSERVATIONS:
            raise ValueError(
                f"restore needs at least {MIN_RESTORE_OBSERVATIONS} observations"
            )
        self.qcsa_result = qcsa_result
        self._observations = [
            _Observation(
                config=config,
                datasize_gb=normalize_datasize(ds),
                rqa_duration_s=float(dur),
            )
            for config, ds, dur in observations
        ]
        self._build_latent_space(cps)

    # ------------------------------------------------------------------
    # Replay trace (the low-variance evaluation path)
    # ------------------------------------------------------------------
    def record_production_run(
        self,
        datasize_gb: float,
        duration_s: float | None = None,
        config: Configuration | None = None,
        rng_key: tuple[int, ...] | None = None,
        environment=None,
    ) -> None:
        """Record one production run into the replay trace.

        A no-op with ``replay_eval="off"`` — the trace and its derived
        RNG keys must not exist on the bit-for-bit default path.  Never
        consumes :attr:`rng`.
        """
        if self.replay_eval == "off":
            return
        self.replay_trace.record(
            datasize_gb=normalize_datasize(datasize_gb),
            duration_s=duration_s,
            rng_key=rng_key,
            config=config,
            environment=environment,
        )

    def restore_replay_trace(
        self, runs: list[tuple[Configuration, float, float]], first_index: int
    ) -> None:
        """Rebuild the trace from a previous process's production runs.

        ``runs`` are ``(config, datasize_gb, duration_s)`` tuples, oldest
        first, and ``first_index`` counts the production runs older than
        them.  Each run is recorded again at the index it had when it
        was first recorded, so it gets back the same RNG key.
        """
        self.replay_trace = ReplayTrace(
            capacity=self.replay_trace.capacity, first_index=first_index
        )
        for config, datasize_gb, duration_s in runs:
            self.record_production_run(datasize_gb, duration_s, config=config)

    def replay_shadow_pairs(
        self, incumbent: Configuration, challenger: Configuration,
        max_pairs: int | None = None,
    ) -> list[tuple[float, float, float]]:
        """CRN shadow pairs replayed from recorded history.

        Full-application runs of both arms on the newest trace steps,
        each pinned to its step's recorded RNG key, returned as
        ``(datasize_gb, incumbent_s, challenger_s)`` tuples.  Lets the
        promotion gate reach a verdict before any production run lands.
        Deliberately bypasses :attr:`objective` — replays are rescoring
        of recorded history, not new samples — and returns ``[]`` when
        replay evaluation is off or the trace is too short.  Each run
        depends only on its configuration, datasize, key and
        environment, so one arm's steps run before the other's: the
        simulator then evaluates an arm's stages once per stretch of
        steps at one datasize.
        """
        if self.replay_eval == "off" or self.replay_trace.n_steps < MIN_TRACE_STEPS:
            return []
        steps = self.replay_trace.steps
        if max_pairs is not None:
            steps = steps[-int(max_pairs):]

        def replayed(config: Configuration) -> list[float]:
            return [
                float(self.simulator.run(self.app, config, step.datasize_gb, rng=step.rng_key).duration_s)
                for step in steps
            ]

        inc, chal = replayed(incumbent), replayed(challenger)
        return [(step.datasize_gb, i, c) for step, i, c in zip(steps, inc, chal)]

    # ------------------------------------------------------------------
    # Online prediction (the drift path)
    # ------------------------------------------------------------------
    @property
    def n_adapt_iterations(self) -> int:
        """BO budget of a partial :meth:`adapt` session.

        Defaults to about a third of the full ``max_iterations`` — the
        surrogate is warm, so a drift retune only needs enough fresh
        evaluations to re-anchor it, not a full search.
        """
        if self._n_adapt_iterations is not None:
            return min(self._n_adapt_iterations, self.max_iterations)
        return max(2, min(self.max_iterations, (self.max_iterations + 2) // 3))

    @property
    def stale_before(self) -> int:
        """Observations below this index predate the latest drift retune."""
        return self._stale_before

    def restore_stale_boundary(self, n: int) -> None:
        """Rehydrate the drift-quarantine boundary persisted by a
        previous process (clamped to the restored history length).

        Without it, a restart after a drift retune would refit the
        monitoring predictor with pre-drift rows back at full weight
        while keeping the calibration that was anchored against the
        quarantined predictor — a systematically low expectation that
        spuriously re-alarms.
        """
        self._stale_before = max(0, min(int(n), len(self._observations)))

    def _refresh_predictor(self) -> DatasizeAwareGP | None:
        """The cached point-estimate DAGP over all observations.

        Fit once per manifold (a session's :meth:`_build_latent_space`
        replaces ``iicp_result``, invalidating the latent geometry), then grown
        by exact rank-k extends as observations arrive — steady-state
        drift checks never pay a refit.  Rows behind the latest drift
        boundary (:attr:`_stale_before`) enter at fidelity 1: they
        describe a pre-drift environment and must shape, not dominate,
        the expectation production runs are checked against.
        """
        iicp = self.iicp_result
        if iicp is None or len(self._observations) < MIN_RESTORE_OBSERVATIONS:
            return None
        count = len(self._observations)
        stale = min(self._stale_before, count)
        if (
            self._predictor is not None
            and self._predictor_iicp is iicp
            and self._predictor_boundary == stale
        ):
            if count > self._predictor_count:
                new = self._observations[self._predictor_count:]
                self._predictor.extend(
                    np.stack([iicp.encode(o.config) for o in new]),
                    np.array([o.datasize_gb for o in new]),
                    np.array([o.rqa_duration_s for o in new]),
                )
                self._predictor_count = count
            return self._predictor
        # The monitoring predictor picks its backend by history size
        # like every surrogate: it grows with every tuning observation
        # and is queried on every production run (production runs never
        # enter it), so an aging tenant's drift checks must not grow
        # with history.
        predictor = DatasizeAwareGP(iicp.n_components, n_mcmc=0)
        predictor.fit(
            np.stack([iicp.encode(o.config) for o in self._observations]),
            np.array([o.datasize_gb for o in self._observations]),
            np.array([o.rqa_duration_s for o in self._observations]),
            fidelities=(
                np.array([1.0] * stale + [0.0] * (count - stale)) if stale else None
            ),
        )
        self._predictor = predictor
        self._predictor_iicp = iicp
        self._predictor_count = count
        self._predictor_boundary = stale
        return predictor

    def predict_log_duration(
        self, config: Configuration, datasize_gb: float
    ) -> tuple[float, float] | None:
        """Posterior (mean, std) of the log RQA duration of one config.

        This is what the online controller compares production runs
        against: the same DAGP knowledge the tuner pays to maintain,
        with an uncertainty estimate.  None before the bootstrap (or
        with under :data:`MIN_RESTORE_OBSERVATIONS` observations).
        """
        predictor = self._refresh_predictor()
        if predictor is None:
            return None
        assert self.iicp_result is not None
        mean, std = predictor.predict(
            self.iicp_result.encode(config), normalize_datasize(datasize_gb)
        )
        return float(mean[0]), float(std[0])

    #: Parameters whose defaults assume a tiny cluster; their tuned values
    #: are always kept (the starred rows of Table 2 plus executor count).
    RESOURCE_PARAMETERS = frozenset(
        {
            "driver.cores",
            "driver.memory",
            "executor.cores",
            "executor.instances",
            "executor.memory",
            "executor.memoryOverhead",
            "memory.offHeap.size",
            "memory.offHeap.enabled",
            "memory.fraction",
            "memory.storageFraction",
            "default.parallelism",
            "sql.shuffle.partitions",
        }
    )

    def _best_observation(self) -> _Observation:
        return min(self._observations, key=lambda o: o.rqa_duration_s)

    def _polish(
        self, datasize_gb: float, csq: list[str], top_k: int = 12, since: int = 0,
        evaluate=None,
    ) -> None:
        """Greedy coordinate polish of the incumbent, evaluated on the RQA.

        This is the exploitation end-game of "only tune the important
        parameters": once BO has located the basin, a short deterministic
        sweep over the resource parameters and the top-|SCC| parameters
        squeezes out the remaining gains EI no longer considers worth an
        evaluation.  Boolean parameters are flipped outright (a small
        encoded step never crosses their 0.5 rounding boundary).
        ``since`` restricts the incumbent to observations recorded from
        that index on (partial sessions quarantine pre-drift rows).
        ``evaluate`` overrides how a candidate is scored (``config ->
        duration_s``, the replay path); the default is a live RQA run
        through the objective, bit for bit the historic sweep.
        """
        assert self.iicp_result is not None
        space = self.objective.space
        scc = self.iicp_result.cps.scc
        ranked = sorted(space.names, key=lambda n: -abs(scc.get(n, 0.0)))
        # Sorted, not raw set order: frozenset iteration depends on the
        # process hash seed, which silently made polish trajectories —
        # and therefore tuned configurations — differ between processes.
        names = list(dict.fromkeys(sorted(self.RESOURCE_PARAMETERS & set(space.names)) + ranked[:top_k]))
        at_ds = _at_datasize(self._observations[since:], datasize_gb)
        if not at_ds:
            return
        incumbent = min(at_ds, key=lambda o: o.rqa_duration_s)
        best_config = incumbent.config
        # The replay path re-scores the incumbent through the same
        # evaluator, so the sweep compares replay means against a replay
        # mean — never a live draw against an averaged one.
        best_duration = (
            incumbent.rqa_duration_s if evaluate is None else float(evaluate(best_config))
        )
        encoded = space.encode(best_config)
        booleans = set(space.boolean_names())
        # Adaptation sessions (top_k=0: resource parameters only) get a
        # single sweep; the first session polishes more thoroughly.
        budget = (3 if top_k else 1) * len(names)

        def try_candidate(candidate: Configuration) -> bool:
            nonlocal best_config, best_duration, encoded, budget
            if candidate == best_config or budget <= 0:
                return False
            if evaluate is None:
                duration = self.objective.run_subset(candidate, datasize_gb, csq).duration_s
            else:
                duration = float(evaluate(candidate))
            budget -= 1
            self._observations.append(_Observation(candidate, datasize_gb, duration))
            if duration < best_duration:
                best_config = candidate
                best_duration = duration
                encoded = space.encode(best_config)
                return True
            return False

        # Known-coupled Spark parameters first: memory.offHeap.size is
        # meaningless unless memory.offHeap.enabled is set, so a
        # coordinate-wise sweep can never turn off-heap memory on.  Try
        # the pair jointly at a few sizes.
        offheap_hi = space.bounds("memory.offHeap.size")[1]
        for size in (0.25 * offheap_hi, 0.5 * offheap_hi):
            try_candidate(
                space.repair(
                    best_config.replace(
                        **{"memory.offHeap.enabled": True, "memory.offHeap.size": int(size)}
                    )
                )
            )
        try_candidate(
            space.repair(
                best_config.replace(
                    **{"memory.offHeap.enabled": False, "memory.offHeap.size": 0}
                )
            )
        )

        # The finer step runs whether or not the coarse one improved;
        # the budget bounds the cost.  Booleans flip once, not per step.
        for step, flip in ((0.12, True), (0.06, False)):
            for name in names:
                if budget <= 0:
                    break
                if name in booleans:
                    if flip:
                        try_candidate(
                            space.repair(best_config.replace(**{name: not best_config[name]}))
                        )
                    continue
                index = space.names.index(name)
                for delta in (+step, -step):
                    trial_encoded = encoded.copy()
                    trial_encoded[index] = float(np.clip(trial_encoded[index] + delta, 0.0, 1.0))
                    if try_candidate(space.decode(trial_encoded)):
                        break  # the other direction is now stale
            if budget <= 0:
                break

    def _reset_unimportant_to_defaults(self, config: Configuration) -> Configuration:
        """CPS-dropped, non-resource parameters go back to their defaults."""
        assert self.iicp_result is not None
        space = self.objective.space
        defaults = space.default()
        selected = set(self.iicp_result.selected)
        updates = {
            name: defaults[name]
            for name in space.names
            if name not in selected and name not in self.RESOURCE_PARAMETERS
        }
        return space.repair(config.replace(**updates)) if updates else config

    # ------------------------------------------------------------------
    # Tuning sessions
    # ------------------------------------------------------------------
    def tune(self, datasize_gb: float) -> TuningResult:
        """Tune for ``datasize_gb``; later calls reuse all prior knowledge."""
        try:
            return self._tune(datasize_gb)
        finally:
            # Sessions are rare (bootstrap, then occasional adaptation);
            # keeping n_workers pool threads alive between them — per
            # tenant, for the service's lifetime — is a leak, and the
            # next session lazily recreates the pool anyway.
            self.evaluator.close()

    def adapt(self, datasize_gb: float, max_iterations: int | None = None) -> TuningResult:
        """A *partial* tuning session for drift-triggered retunes.

        The surrogate already knows the configuration space — the
        environment merely shifted under it — so the session runs a
        reduced BO budget (:attr:`n_adapt_iterations` unless
        overridden) over the incremental surrogate engine, warm-started
        from the full observation history.  Everything else matches a
        regular adaptation session: the incumbent is re-anchored at the
        target datasize, the result is validated with one full run, and
        the observations land in :attr:`observation_history` for
        persistence.  Falls back to a full :meth:`tune` when nothing is
        bootstrapped yet (there is no knowledge to warm-start from).
        """
        if not self.is_bootstrapped:
            return self.tune(datasize_gb)
        if max_iterations is not None and int(max_iterations) < 1:
            raise ValueError("max_iterations must be at least 1")
        budget = self.n_adapt_iterations if max_iterations is None else int(max_iterations)
        try:
            return self._tune(datasize_gb, partial=True, budget=budget)
        finally:
            self.evaluator.close()

    def _tune(
        self, datasize_gb: float, partial: bool = False, budget: int | None = None
    ) -> TuningResult:
        datasize_gb = normalize_datasize(datasize_gb)
        # Session budgets: a partial (drift) session caps the iterations
        # (the surrogate is warm; a few fresh evaluations re-anchor it).
        session_max = self.max_iterations if budget is None else min(budget, self.max_iterations)
        session_min = max(1, session_max // 3) if partial else self.min_iterations
        overhead_before = self.objective.overhead_s
        evals_before = self.objective.n_evaluations
        fresh_session = not self.is_bootstrapped
        self.bootstrap(datasize_gb)
        assert self.iicp_result is not None
        csq = self.csq
        # Replay-based low-variance evaluation engages only for partial
        # (drift) sessions with enough recorded history: BO candidates,
        # the polish sweep, and the final selection are scored on CRN
        # replays of the trace — shared environment draws, so candidate
        # deltas cancel the common noise — and the session's live cost
        # shrinks to the incumbent anchor plus one validation run.
        replay = None
        race_outcome = None
        if (
            partial
            and self.replay_eval == "race"
            and self.replay_trace.n_steps >= MIN_TRACE_STEPS
        ):
            from repro.replay.evaluator import ReplayEvaluator

            self._replay_sessions += 1
            replay = ReplayEvaluator(
                self.simulator,
                self.app,
                self.replay_trace,
                n_replays=self.n_replays,
                seed=self._replay_sessions,
            )
        # A partial (drift) session quarantines everything measured
        # before it: the environment shifted, so historical durations
        # are systematically off by an unknown factor.  Pre-session
        # rows enter the surrogate as a low-fidelity prior (the same
        # mechanism that quarantines transfer donors — shape, not
        # scale) while only measurements taken *this* session anchor
        # the incumbent, the polish, and the final selection.  The
        # boundary is remembered so the online monitoring predictor —
        # and every *later* session, full ones included — applies the
        # same demotion: a datasize-margin session after a drift event
        # must not blend pre-drift durations back in at full weight.
        session_start = len(self._observations) if partial else 0
        if partial:
            self._stale_before = session_start
            self._stale_trials_before = evals_before
        quarantine = session_start if partial else min(
            self._stale_before, len(self._observations)
        )

        # Adaptation sessions start by re-measuring the incumbent from the
        # nearest previously tuned datasize: one cheap RQA run anchors the
        # DAGP at the new size and guarantees the session never ends worse
        # than simply reusing the old configuration.
        unseen_datasize = not _at_datasize(self._observations, datasize_gb)
        if unseen_datasize and self._observations and self.use_dagp:
            nearest_ds = min(
                {o.datasize_gb for o in self._observations},
                key=lambda d: abs(d - datasize_gb),
            )
            carry = min(
                _at_datasize(self._observations, nearest_ds),
                key=lambda o: o.rqa_duration_s,
            )
            trial = self.objective.run_subset(carry.config, datasize_gb, csq)
            self._observations.append(
                _Observation(carry.config, datasize_gb, trial.duration_s)
            )

        # A partial (drift) session always re-measures the incumbent in
        # the *current* environment: drift retunes fire at an
        # already-tuned datasize, so the block above is skipped, yet the
        # quarantine means only in-session rows compete for the final
        # selection.  Without this anchor a session whose few fresh
        # evaluations all landed on poor configurations could deploy
        # something strictly worse than what is already running.
        if partial and not _at_datasize(self._observations[session_start:], datasize_gb):
            stale = self._observations[:session_start]
            pool = _at_datasize(stale, datasize_gb) or stale
            if pool:
                carry = min(pool, key=lambda o: o.rqa_duration_s)
                trial = self.objective.run_subset(carry.config, datasize_gb, csq)
                self._observations.append(
                    _Observation(carry.config, datasize_gb, trial.duration_s)
                )

        # An accepted transfer re-measures the donor's best configuration
        # on the target RQA (once, in the first session after the
        # transfer bootstrap — regardless of whether the caller invoked
        # bootstrap() separately): one cheap run that anchors the
        # incumbent at the donor's converged solution, so the session can
        # never end worse than plain cross-application config reuse.  It
        # runs after the carry above so it can never suppress the
        # tenant's own nearest-datasize incumbent re-measurement.
        if (
            self.transfer_accepted
            and self._transfer_observations
            and not self._transfer_anchor_measured
        ):
            self._transfer_anchor_measured = True
            donor_best = min(self._transfer_observations, key=lambda o: o.rqa_duration_s)
            trial = self.objective.run_subset(donor_best.config, datasize_gb, csq)
            self._observations.append(
                _Observation(donor_best.config, datasize_gb, trial.duration_s)
            )

        iterations_done = 0
        stopped_by_ei = False
        while iterations_done < session_max and not stopped_by_ei:
            # Regrow the KPCA manifold over everything observed so far.
            self._build_latent_space()
            iicp = self.iicp_result
            chunk = min(REFIT_INTERVAL, session_max - iterations_done)

            if replay is not None:
                # Replay scoring: the candidate's mean RQA duration over
                # the fixed replay slots, straight from the simulator —
                # no objective recording, no live evaluation charged.
                def evaluate(latent: np.ndarray, ds: float) -> float:
                    config = iicp.decode(latent)
                    duration = replay.mean_duration(config, queries=csq, datasize_gb=ds)
                    self._observations.append(
                        _Observation(config=config, datasize_gb=ds, rqa_duration_s=duration)
                    )
                    return duration

                evaluate_batch = None
            else:
                def evaluate(latent: np.ndarray, ds: float) -> float:
                    config = iicp.decode(latent)
                    trial = self.objective.run_subset(config, ds, csq)
                    self._observations.append(
                        _Observation(config=config, datasize_gb=ds, rqa_duration_s=trial.duration_s)
                    )
                    return trial.duration_s

                def evaluate_batch(latents: np.ndarray, ds: float) -> np.ndarray:
                    configs = iicp.decode_batch(np.atleast_2d(latents))
                    trials = self.evaluator.run_batch(
                        [EvalRequest(config, ds, tuple(csq)) for config in configs]
                    )
                    for config, trial in zip(configs, trials):
                        self._observations.append(
                            _Observation(
                                config=config, datasize_gb=ds, rqa_duration_s=trial.duration_s
                            )
                        )
                    return np.array([t.duration_s for t in trials])

            if self.use_dagp:
                warm_own = list(self._observations[quarantine:])
                # Donor observations — and everything behind the drift
                # boundary — ride along as a low-fidelity prior; they
                # shape the surrogate but never the incumbent, the
                # stop rule, or the persisted history.
                transfer = list(self._transfer_observations) + list(
                    self._observations[:quarantine]
                )
            else:
                warm_own = _at_datasize(self._observations[quarantine:], datasize_gb)
                transfer = []
            warm = transfer + warm_own
            n_warm = len(warm)
            warm_points = (
                np.stack([iicp.encode(o.config) for o in warm]) if warm else None
            )
            warm_fidelities = (
                np.array([1.0] * len(transfer) + [0.0] * len(warm_own))
                if transfer
                else None
            )

            loop = BOLoop(
                dim=iicp.n_components,
                bounds=iicp.latent_bounds(),
                n_init=3,
                min_iterations=max(0, session_min - iterations_done),
                max_iterations=chunk,
                ei_threshold=self.ei_threshold,
                n_mcmc=self.n_mcmc,
                batch_size=self.n_workers,
                rng=self.rng,
            )
            trace = loop.minimize(
                evaluate,
                datasize_gb,
                warm_points=warm_points,
                warm_datasizes=np.array([o.datasize_gb for o in warm]) if warm else None,
                warm_durations=np.array([o.rqa_duration_s for o in warm]) if warm else None,
                warm_fidelities=warm_fidelities,
                evaluate_batch=evaluate_batch if self.n_workers > 1 else None,
            )
            iterations_done += trace.n_evaluations - n_warm
            stopped_by_ei = trace.stopped_by_ei

        # Full polish on the first tuning session; adaptation sessions only
        # re-polish the resource parameters (the drift DAGP must correct
        # when the datasize changes is in memory and parallelism).
        if self.use_polish:
            self._polish(
                datasize_gb, csq, top_k=12 if fresh_session else 0,
                since=quarantine,
                evaluate=(
                    None if replay is None else (
                        lambda c: replay.mean_duration(c, queries=csq, datasize_gb=datasize_gb)
                    )
                ),
            )

        # Best configuration by RQA duration at this datasize, plus a
        # default-reset refinement: parameters CPS classified unimportant
        # go back to their Spark defaults (the defaults of secondary knobs
        # are interior sweet spots; only resource parameters keep their
        # tuned values, since their defaults assume a tiny cluster).  Both
        # candidates cost one RQA run each; the winner is validated with
        # one full-application run.  All runs count toward the overhead.
        at_ds = _at_datasize(self._observations[quarantine:], datasize_gb)
        best_obs = min(at_ds, key=lambda o: o.rqa_duration_s)
        candidates = [best_obs.config]
        reset_config = self._reset_unimportant_to_defaults(best_obs.config)
        if reset_config != best_obs.config:
            candidates.append(reset_config)
        if replay is not None:
            # Racing final selection: widen the field to the session's
            # next-best distinct configurations, then race everyone on
            # the shared replay slots — successive halving eliminates
            # candidates whose paired CI against the running best
            # excludes zero, and only the survivor is measured live.
            seen = {canonical_key(c) for c in candidates}
            for obs in sorted(at_ds, key=lambda o: o.rqa_duration_s):
                key = canonical_key(obs.config)
                if key not in seen:
                    seen.add(key)
                    candidates.append(obs.config)
                if len(candidates) >= 6:
                    break
            race_outcome = race(
                replay,
                candidates,
                queries=csq,
                datasize_gb=datasize_gb,
                seed=self._replay_sessions,
            )
            best_config = candidates[race_outcome.winner]
            self._observations.append(
                _Observation(
                    best_config,
                    datasize_gb,
                    replay.mean_duration(best_config, queries=csq, datasize_gb=datasize_gb),
                )
            )
        else:
            scored = []
            for candidate in candidates:
                trial = self.objective.run_subset(candidate, datasize_gb, csq)
                self._observations.append(
                    _Observation(candidate, datasize_gb, trial.duration_s)
                )
                scored.append((trial.duration_s, candidate))
            best_config = min(scored, key=lambda s: s[0])[1]
        validation = self.objective.run(best_config, datasize_gb)
        best_duration = validation.duration_s
        # Only post-drift full-application runs may re-anchor the
        # result: a pre-drift trial's duration describes an environment
        # that no longer exists, and deploying on it would pin the
        # calibration (and the next drift check) to stale seconds.
        # Partial sessions restrict further, to this session's runs.
        trials_floor = evals_before if partial else self._stale_trials_before
        fresh_full = [
            t for t in _at_datasize(self.objective.history[trials_floor:], datasize_gb)
            if not t.reduced
        ]
        # Never empty: the validation run above is full, at this
        # datasize, and recorded after the floor.
        incumbent_trial = min(fresh_full, key=lambda t: t.duration_s)
        if incumbent_trial.duration_s < best_duration:
            best_config = incumbent_trial.config
            best_duration = incumbent_trial.duration_s

        details = {
            "qcsa": self.qcsa_result,
            "iicp_selected": list(self.iicp_result.selected),
            "n_latent_dims": self.iicp_result.n_components,
            "stopped_by_ei": stopped_by_ei,
            "partial": partial,
            "csq": list(csq),
            "transfer": self.transfer_state,
            "transfer_donor": (
                self.transfer_from.donor_app_id if self.transfer_from else None
            ),
        }
        # Only replay-enabled tuners grow the details schema: the "off"
        # default must leave every existing result bit for bit.
        if self.replay_eval != "off":
            details["replay"] = {
                "enabled": replay is not None,
                "n_trace_steps": self.replay_trace.n_steps,
                **(replay.stats() if replay is not None else {}),
                "race": None if race_outcome is None else race_outcome.to_json(),
            }
        return TuningResult(
            tuner=self.NAME,
            application=self.app.name,
            datasize_gb=float(datasize_gb),
            best_config=best_config,
            best_duration_s=best_duration,
            overhead_s=self.objective.overhead_s - overhead_before,
            evaluations=self.objective.n_evaluations - evals_before,
            details=details,
        )


def race(evaluator, candidates: list, **kwargs):
    """:func:`repro.replay.racing.race`, imported on the first race.

    Only a drift retune with replay racing runs one, so a cold session
    never loads the racing module.  :meth:`LOCAT._tune` looks the race
    up here, so ``perfbench/tracer.py`` wraps this one name.
    """
    from repro.replay.racing import race as run_race

    return run_race(evaluator, candidates, **kwargs)


def _at_datasize(rows: list, datasize_gb: float) -> list:
    """The observations or trials in ``rows`` recorded at ``datasize_gb``.

    ``datasize_gb`` must be canonical (:func:`normalize_datasize`), as
    every recorded datasize is.
    """
    # Exact: both sizes are canonical values no arithmetic has touched.
    return [row for row in rows if row.datasize_gb == datasize_gb]  # repro: allow[float-eq]


def _identity_iicp(space) -> IICPResult:
    """An IICPResult that passes the full encoded space through unchanged.

    Used by the all-parameters ablation (Figure 15's AP bars): CPS keeps
    every parameter and CPE is replaced by an identity 'KPCA' spanning
    the unit cube.
    """

    class _IdentityKPCA:
        def __init__(self, dim: int):
            self.n_components_ = dim

        def transform(self, x):
            return np.atleast_2d(np.asarray(x, dtype=float))

        def inverse_transform(self, z, n_iterations: int = 0):
            del n_iterations
            return np.clip(np.atleast_2d(np.asarray(z, dtype=float)), 0.0, 1.0)

        def latent_bounds(self):
            return np.zeros(self.n_components_), np.ones(self.n_components_)

    names = tuple(space.names)
    cps = CPSResult(scc={n: 1.0 for n in names}, selected=names, threshold=0.0)
    cpe = CPEResult(kpca=_IdentityKPCA(space.dim), n_components=space.dim, kernel="identity")
    return IICPResult(cps=cps, cpe=cpe, space=space, base_config=space.default())
