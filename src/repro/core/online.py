"""Online tuning controller: when should LOCAT (re)tune?

The paper's deployment story (section 3.1) is an application that "runs
repeatedly many times with the size of input data changing over time".
This controller wraps a :class:`~repro.core.locat.LOCAT` instance and
watches the production runs: each incoming (datasize, duration)
observation is checked against the expectation for the currently
deployed configuration, and a tuning session is triggered when

* a datasize arrives that is far from anything tuned so far, or
* measured durations drift above the expectation (the model of the
  deployed config is stale — data distribution or cluster changed).

Expectations come from the DAGP surrogate LOCAT already maintains
(posterior mean *and* uncertainty of the deployed configuration at any
datasize, calibrated to full-application scale at deploy time), and
drift is decided by a sequential change detector
(:mod:`repro.core.drift`): Page–Hinkley over the standardized
residuals, or any injected :class:`~repro.core.drift.DriftDetector`.

Drift-triggered retunes are *partial* sessions
(:meth:`~repro.core.locat.LOCAT.adapt`): a reduced BO budget over the
incremental surrogate engine, warm-started from the full observation
history — the model is merely stale, not absent, so a handful of fresh
evaluations re-anchors it at a fraction of a cold session's cost.
Datasize-margin retunes keep the full budget (a genuinely new operating
point deserves a full search).

Only the first session's winner deploys at once.  Every later retune's
winner goes through the shadow A/B gate
(:class:`~repro.core.promotion.PromotionGate`): incumbent and challenger
are measured under common random numbers on the following production
runs, and the challenger deploys only on a significant paired-bootstrap
win.

This is the glue a production user needs around the core algorithm; the
paper leaves it implicit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.datasize import normalize_datasize
from repro.core.drift import (
    LOG_STD_FLOOR,
    DriftDetector,
    DurationPrediction,
    PageHinkleyDetector,
)
from repro.core.locat import LOCAT
from repro.core.promotion import (
    DECISION_EXTEND,
    DECISION_PROMOTE,
    SHADOW_SEED_SALT,
    PromotionGate,
    ShadowPair,
    ShadowState,
    winner_record,
)
from repro.core.result import TuningResult
from repro.stats.sampling import ensure_rng
from repro.sparksim.configspace import Configuration


def config_key(config: Configuration) -> tuple:
    """Canonical identity of a configuration for equality checks.

    Exact ``Configuration.__eq__`` is too brittle across process
    restarts: a configuration rehydrated from ``deployed.json`` must
    match one a retune rebuilt from ``runs.jsonl`` (the shadow gate's
    "retune re-confirmed the incumbent" check), and a JSON float/type
    round trip (or any upstream arithmetic) may leave the two off by one
    ulp.  The key compares booleans as booleans and every numeric value
    as a float rounded well below parameter resolution, so equal logical
    configurations always collide.
    """
    return tuple(
        (name, value if isinstance(value, bool) else round(float(value), 9))
        for name, value in sorted(config.as_dict().items())
    )


@dataclass
class OnlineDecision:
    """What the controller did with one production observation."""

    datasize_gb: float
    duration_s: float
    retuned: bool
    reason: str
    config: Configuration
    result: TuningResult | None = None
    #: What caused a retune: "initial", "datasize", "drift" — or "none".
    trigger: str = "none"
    #: Shadow/promotion bookkeeping for this observation (None outside
    #: shadow activity).
    promotion: dict | None = None


@dataclass
class _DeployedState:
    config: Configuration
    tuned_datasizes: list[float] = field(default_factory=list)
    #: Additive log-space calibration from the DAGP's RQA-scale
    #: prediction to full-application scale, measured at deploy time
    #: from the session's validation run.  None until calibrated.
    log_offset: float | None = None


class OnlineController:
    """Drives LOCAT from a stream of production runs.

    ``datasize_margin`` — relative distance to the nearest tuned
    datasize beyond which a new size triggers adaptation (default 30%:
    tuned at 300 GB covers ~210-390 GB).
    ``detector`` — a :class:`~repro.core.drift.DriftDetector` instance
    watching the deployment; None (default) builds a
    :class:`~repro.core.drift.PageHinkleyDetector` over DAGP-standardized
    residuals.
    ``shadow_runs`` / ``ab_alpha`` parameterize the promotion gate
    every retune's winner passes (the minimum pair count and the
    significance level); ``shadow_measure`` overrides how a shadow arm
    is measured (``(config, datasize_gb, rng) -> duration_s``,
    defaulting to the tuner's own simulator).
    ``capture_replay_trace`` — record every measured production run into
    the tuner's :class:`~repro.replay.trace.ReplayTrace`; ``None``
    (default) follows the tuner's ``replay_eval`` setting.  With replay
    evaluation on, a new shadow is also *prefilled* with CRN pairs
    replayed from the trace, so the gate can reach its verdict before
    any production run lands.
    """

    def __init__(
        self,
        locat: LOCAT,
        datasize_margin: float = 0.3,
        detector: DriftDetector | None = None,
        shadow_runs: int = 6,
        ab_alpha: float = 0.05,
        shadow_measure: Callable[[Configuration, float, np.random.Generator], float]
        | None = None,
        capture_replay_trace: bool | None = None,
    ):
        if datasize_margin <= 0:
            raise ValueError("datasize_margin must be positive")
        if detector is not None and not isinstance(detector, DriftDetector):
            raise TypeError(
                f"detector must be a DriftDetector instance, got {detector!r}"
            )
        self.locat = locat
        self.datasize_margin = datasize_margin
        # The gate validates shadow_runs/ab_alpha at construction, so a
        # bad tenant key fails at registration, not at first drift.
        self._gate = PromotionGate(min_runs=shadow_runs, alpha=ab_alpha)
        self._shadow_measure = shadow_measure or self._default_shadow_measure
        # getattr: tests drive the controller with stub tuners that
        # predate the replay attributes.
        self.capture_replay_trace = (
            getattr(locat, "replay_eval", "off") != "off"
            if capture_replay_trace is None
            else bool(capture_replay_trace)
        )
        self._shadow: ShadowState | None = None
        self._shadow_counter = 0
        self._promoted = 0
        self._rejected = 0
        self._last_promotion: dict | None = None
        #: Terminal promote/reject provenance records since the last
        #: drain (the service registry appends them to ``winners.json``).
        self.promotion_events: list[dict] = []
        self._detector = detector if detector is not None else PageHinkleyDetector()
        self._state: _DeployedState | None = None

    # ------------------------------------------------------------------
    @property
    def is_deployed(self) -> bool:
        return self._state is not None

    @property
    def deployed_config(self) -> Configuration:
        if self._state is None:
            raise RuntimeError("no configuration deployed yet; call observe()")
        return self._state.config

    @property
    def tuned_datasizes(self) -> list[float]:
        """Datasizes covered by tuning sessions so far (empty pre-deploy)."""
        return list(self._state.tuned_datasizes) if self._state is not None else []

    @property
    def log_offset(self) -> float | None:
        """The deploy-time model calibration offset (None pre-deploy)."""
        return self._state.log_offset if self._state is not None else None

    def detector_state(self) -> dict:
        """JSON-safe detector snapshot for ``deployed.json``."""
        return self._detector.state()

    def drift_status(self) -> dict:
        """JSON-safe drift diagnostics (served by ``GET /apps/<id>``)."""
        status = dict(self._detector.status())
        status["calibrated"] = self.log_offset is not None
        return status

    # ------------------------------------------------------------------
    # Promotion / shadow evaluation
    # ------------------------------------------------------------------
    @property
    def shadow_active(self) -> bool:
        """Whether a challenger is currently under shadow evaluation."""
        return self._shadow is not None

    def promotion_status(self) -> dict:
        """JSON-safe promotion diagnostics (served by ``GET /apps/<id>``)."""
        shadow = None
        if self._shadow is not None:
            shadow = {
                "run_id": self._shadow.run_id,
                "trigger": self._shadow.trigger,
                "n_pairs": len(self._shadow.pairs),
                "min_runs": self._gate.min_runs,
                "max_runs": self._gate.max_runs,
                "origin_datasize_gb": self._shadow.origin_datasize_gb,
            }
        return {
            "shadow_active": self._shadow is not None,
            "shadow": shadow,
            "promoted": self._promoted,
            "rejected": self._rejected,
            "last_decision": self._last_promotion,
        }

    def promotion_state(self) -> dict | None:
        """Restart-surviving promotion snapshot for ``deployed.json``.

        None while there is nothing to persist (no shadow was ever
        opened), so a tenant that never retuned writes no promotion block.
        """
        if self._shadow is None and self._shadow_counter == 0:
            return None
        return {
            "shadow": None if self._shadow is None else self._shadow.to_json(),
            "counter": self._shadow_counter,
            "promoted": self._promoted,
            "rejected": self._rejected,
            "last_decision": self._last_promotion,
        }

    def restore_promotion(self, payload: dict | None) -> None:
        """Rehydrate an in-flight shadow and promotion counters.

        Accepts the block written by :meth:`promotion_state` (absent in
        stores of tenants that never retuned).  A persisted shadow
        resumes where it stopped; an unvetted challenger never deploys
        on restart.  The ``mode`` field earlier versions wrote is
        ignored.
        """
        if not payload:
            return
        self._shadow_counter = int(payload.get("counter", 0))
        self._promoted = int(payload.get("promoted", 0))
        self._rejected = int(payload.get("rejected", 0))
        self._last_promotion = payload.get("last_decision")
        shadow = payload.get("shadow")
        if shadow:
            self._shadow = ShadowState.from_json(shadow)

    def drain_promotion_events(self) -> list[dict]:
        """Hand off terminal decision records accumulated since last drain."""
        events, self.promotion_events = self.promotion_events, []
        return events

    def restore_state(
        self,
        config: Configuration,
        tuned_datasizes: list[float],
        detector_state: dict | None = None,
        log_offset: float | None = None,
    ) -> None:
        """Rehydrate the deployed state persisted by a previous process.

        Together with :meth:`LOCAT.restore` this lets a restarted service
        resume exactly where it stopped: the deployed configuration, the
        datasizes it covers, the model calibration, and the partially
        filled detector window.
        """
        if not tuned_datasizes:
            raise ValueError("restore_state needs at least one tuned datasize")
        self._state = _DeployedState(
            config=config,
            tuned_datasizes=[normalize_datasize(d) for d in tuned_datasizes],
            log_offset=None if log_offset is None else float(log_offset),
        )
        self._detector.reset()
        if detector_state:
            self._detector.restore(detector_state)

    def would_retune(self, datasize_gb: float) -> bool:
        """Whether an observe at this datasize *deterministically* starts
        a tuning session: nothing deployed yet, or the size is beyond
        ``datasize_margin`` from everything tuned.  Drift-triggered
        retunes depend on the measured duration and are not predicted.
        The scheduler uses this to size a job's slot reservation before
        running it."""
        datasize_gb = normalize_datasize(datasize_gb)
        if self._state is None:
            return True
        nearest = min(self._state.tuned_datasizes, key=lambda d: abs(d - datasize_gb))
        return abs(datasize_gb - nearest) / nearest > self.datasize_margin

    # ------------------------------------------------------------------
    # Expectations
    # ------------------------------------------------------------------
    def _calibrate(self, datasize_gb: float, full_duration_s: float) -> None:
        """Anchor the model's RQA-scale prediction to full-app seconds."""
        assert self._state is not None
        raw = self.locat.predict_log_duration(self._state.config, datasize_gb)
        if raw is not None:
            self._state.log_offset = (
                math.log(max(float(full_duration_s), 1e-9)) - raw[0]
            )

    def _deploy(self, result: TuningResult, datasize_gb: float) -> None:
        """Bookkeeping after any tuning session deployed a new config."""
        state = self._state
        assert state is not None
        state.config = result.best_config
        if datasize_gb not in state.tuned_datasizes:
            state.tuned_datasizes.append(datasize_gb)
        state.log_offset = None
        self._detector.reset()
        # The session's validation run is a measured full-application
        # duration of the freshly deployed config: the one clean anchor
        # tying the DAGP's RQA-scale posterior to the scale production
        # durations arrive in.
        self._calibrate(datasize_gb, result.best_duration_s)

    # ------------------------------------------------------------------
    # Shadow evaluation internals
    # ------------------------------------------------------------------
    def _default_shadow_measure(
        self, config: Configuration, datasize_gb: float, rng: np.random.Generator
    ) -> float:
        """Measure one shadow arm on the tuner's own simulator.

        Deliberately bypasses ``locat.objective`` so shadow runs never
        perturb the tuner's trial history, evaluation counts, or
        incumbent selection.
        """
        metrics = self.locat.simulator.run(self.locat.app, config, datasize_gb, rng=rng)
        return float(metrics.duration_s)

    def _gate_candidate(
        self,
        result: TuningResult,
        datasize_gb: float,
        duration_s: float | None,
        trigger: str,
        reason: str,
    ) -> OnlineDecision:
        """Open a shadow for a retune's winner instead of deploying it."""
        state = self._state
        assert state is not None
        if config_key(result.best_config) == config_key(state.config):
            # The retune re-confirmed the incumbent: nothing to gate.
            # Re-deploying refreshes the calibration and detector window.
            self._deploy(result, datasize_gb)
            return OnlineDecision(
                datasize_gb=datasize_gb,
                duration_s=result.best_duration_s if duration_s is None else duration_s,
                retuned=True,
                reason=f"{reason} — retune re-confirmed the deployed configuration",
                config=state.config,
                result=result,
                trigger=trigger,
                promotion={"phase": "reconfirmed"},
            )
        self._shadow_counter += 1
        self._shadow = ShadowState(
            run_id=f"shadow-{trigger}-{self._shadow_counter:04d}",
            trigger=trigger,
            reason=reason,
            incumbent=state.config,
            challenger=result.best_config,
            origin_datasize_gb=datasize_gb,
            challenger_duration_s=float(result.best_duration_s),
            seed=self._shadow_counter,
        )
        # Drift state refers to the pre-retune model; start the shadow
        # with a clean window so a stale alarm cannot linger past it.
        self._detector.reset()
        # Replay prefill: with replay evaluation on, CRN pairs replayed
        # from recorded history seed the shadow immediately — a verdict
        # reachable from the trace alone costs zero production delay.
        replay_pairs = self.locat.replay_shadow_pairs(
            state.config, result.best_config, max_pairs=self._gate.min_runs
        ) if hasattr(self.locat, "replay_shadow_pairs") else []
        for pair_ds, incumbent_s, challenger_s in replay_pairs:
            self._shadow.pairs.append(
                ShadowPair(
                    datasize_gb=float(pair_ds),
                    incumbent_s=float(incumbent_s),
                    challenger_s=float(challenger_s),
                )
            )
        if replay_pairs:
            decision, test, why = self._gate.evaluate(self._shadow)
            if decision != DECISION_EXTEND:
                return self._resolve_shadow(
                    self._shadow,
                    decision,
                    test,
                    why,
                    datasize_gb,
                    result.best_duration_s if duration_s is None else duration_s,
                    result=result,
                    replay_pairs=len(replay_pairs),
                )
        return OnlineDecision(
            datasize_gb=datasize_gb,
            duration_s=result.best_duration_s if duration_s is None else duration_s,
            retuned=True,
            reason=f"{reason} — candidate entering shadow evaluation",
            config=state.config,
            result=result,
            trigger=trigger,
            promotion={
                "phase": "shadow_started",
                "run_id": self._shadow.run_id,
                "n_pairs": len(self._shadow.pairs),
                "min_runs": self._gate.min_runs,
                "max_runs": self._gate.max_runs,
            },
        )

    def _promote(self, shadow: ShadowState) -> None:
        """Deploy a shadow's challenger after a significant win."""
        state = self._state
        assert state is not None
        state.config = shadow.challenger
        if shadow.origin_datasize_gb not in state.tuned_datasizes:
            state.tuned_datasizes.append(shadow.origin_datasize_gb)
        state.log_offset = None
        self._detector.reset()
        if shadow.pairs:
            # The freshest shadow measurement of the challenger is a
            # full-application duration at a production datasize — the
            # same role the validation run plays for the first deploy.
            last = shadow.pairs[-1]
            self._calibrate(last.datasize_gb, last.challenger_s)

    def _advance_shadow(
        self, datasize_gb: float, duration_s: float | None
    ) -> OnlineDecision:
        """Measure one CRN pair and ask the gate for a verdict."""
        state = self._state
        shadow = self._shadow
        assert state is not None and shadow is not None
        k = len(shadow.pairs)
        # Common random numbers: both arms consume an identically seeded
        # stream, so the pair shares its environment draw and the delta
        # cancels the common noise.
        incumbent_s = self._shadow_measure(
            shadow.incumbent,
            datasize_gb,
            ensure_rng((SHADOW_SEED_SALT, shadow.seed, k)),
        )
        challenger_s = self._shadow_measure(
            shadow.challenger,
            datasize_gb,
            ensure_rng((SHADOW_SEED_SALT, shadow.seed, k)),
        )
        shadow.pairs.append(
            ShadowPair(
                datasize_gb=datasize_gb,
                incumbent_s=float(incumbent_s),
                challenger_s=float(challenger_s),
            )
        )
        decision, test, why = self._gate.evaluate(shadow)
        reported = float("nan") if duration_s is None else duration_s
        if decision == DECISION_EXTEND:
            return OnlineDecision(
                datasize_gb=datasize_gb,
                duration_s=reported,
                retuned=False,
                reason=f"shadow evaluation in progress: {why}",
                config=state.config,
                promotion={
                    "phase": "shadow",
                    "run_id": shadow.run_id,
                    "n_pairs": len(shadow.pairs),
                    "min_runs": self._gate.min_runs,
                    "max_runs": self._gate.max_runs,
                },
            )
        return self._resolve_shadow(shadow, decision, test, why, datasize_gb, reported)

    def _resolve_shadow(
        self,
        shadow: ShadowState,
        decision: str,
        test,
        why: str,
        datasize_gb: float,
        reported: float,
        result: TuningResult | None = None,
        replay_pairs: int = 0,
    ) -> OnlineDecision:
        """Close a shadow on a terminal gate verdict (promote/reject).

        Shared by the production path (:meth:`_advance_shadow`) and the
        replay-prefill path (:meth:`_gate_candidate`), which passes the
        retune ``result`` and how many pairs came from replays.
        """
        state = self._state
        assert state is not None
        record = winner_record(shadow, decision, test, why)
        self.promotion_events.append(record)
        self._last_promotion = {
            "run_id": shadow.run_id,
            "decision": decision,
            "reason": why,
            "n_pairs": len(shadow.pairs),
            "ab": None if test is None else test.to_json(),
        }
        self._shadow = None
        extra = {"replay_pairs": replay_pairs} if replay_pairs else {}
        if decision == DECISION_PROMOTE:
            self._promoted += 1
            self._promote(shadow)
            # A verdict reached on production pairs is not a retune: the
            # retune was reported when the shadow opened.
            return OnlineDecision(
                datasize_gb=datasize_gb,
                duration_s=reported,
                retuned=result is not None,
                reason=f"challenger promoted: {why}",
                config=state.config,
                result=result,
                trigger="none" if result is None else shadow.trigger,
                promotion={
                    "phase": "promoted",
                    "run_id": shadow.run_id,
                    "n_pairs": len(shadow.pairs),
                    "ab": None if test is None else test.to_json(),
                    **extra,
                },
            )
        self._rejected += 1
        if (
            shadow.trigger == "datasize"
            and shadow.origin_datasize_gb not in state.tuned_datasizes
        ):
            # The incumbent was just measured at the new size and held
            # its place: the size is tuned, or every later observe there
            # would re-run the retune and reopen the same shadow.
            state.tuned_datasizes.append(shadow.origin_datasize_gb)
        # The incumbent stays; give drift detection a fresh window so a
        # real regression can re-alarm (and re-tune) from here on.
        self._detector.reset()
        return OnlineDecision(
            datasize_gb=datasize_gb,
            duration_s=reported,
            retuned=result is not None,
            reason=f"challenger rejected: {why}",
            config=state.config,
            result=result,
            trigger="none" if result is None else shadow.trigger,
            promotion={
                "phase": "rejected",
                "run_id": shadow.run_id,
                "n_pairs": len(shadow.pairs),
                "ab": None if test is None else test.to_json(),
                **extra,
            },
        )

    # ------------------------------------------------------------------
    def observe(self, datasize_gb: float, duration_s: float | None = None) -> OnlineDecision:
        """Process one production run request.

        ``duration_s`` is the measured duration of the *previous* run of
        the deployed configuration at this datasize (None for the first
        call or when measurements are unavailable).  Returns the decision
        with the configuration to use for this run.
        """
        # Canonicalize before any comparison or store: a client sending
        # 100 vs 100.0 vs a JSON round-trip artifact must hit the same
        # tuned-datasize history, not fork a new one.
        datasize_gb = normalize_datasize(datasize_gb)

        # Replay capture: the measured run of the deployed configuration
        # becomes one trace step (a no-op with replay evaluation off).
        if (
            self.capture_replay_trace
            and self._state is not None
            and duration_s is not None
            and hasattr(self.locat, "record_production_run")
        ):
            self.locat.record_production_run(
                datasize_gb, duration_s, config=self._state.config
            )

        if self._state is None:
            result = self.locat.tune(datasize_gb)
            self._state = _DeployedState(config=result.best_config)
            self._deploy(result, datasize_gb)
            return OnlineDecision(
                datasize_gb=datasize_gb,
                # `duration_s or ...` would treat a measured 0.0 as
                # missing; only None means "no measurement".
                duration_s=result.best_duration_s if duration_s is None else duration_s,
                retuned=True,
                reason="initial tuning session",
                config=result.best_config,
                result=result,
                trigger="initial",
            )

        state = self._state
        if self._shadow is not None:
            # A challenger is under evaluation: every production run
            # contributes one CRN pair, and retune triggers stay muted
            # until the gate reaches a verdict (re-tuning mid-shadow
            # would race two candidates for one deployment slot).
            return self._advance_shadow(datasize_gb, duration_s)
        if self.would_retune(datasize_gb):
            # Recomputed here only for the human-readable reason; the
            # decision rule itself lives in would_retune.
            nearest = min(state.tuned_datasizes, key=lambda d: abs(d - datasize_gb))
            relative_gap = abs(datasize_gb - nearest) / nearest
            result = self.locat.tune(datasize_gb)
            reason = (
                f"datasize {datasize_gb:.0f}GB is {relative_gap:.0%} from "
                f"nearest tuned size {nearest:.0f}GB"
            )
            return self._gate_candidate(
                result, datasize_gb, duration_s, "datasize", reason
            )

        # None only before the bootstrap: a LOCAT restores a history
        # from as few observations as its predictor fits on.
        raw = (
            None if duration_s is None
            else self.locat.predict_log_duration(state.config, datasize_gb)
        )
        if raw is not None and state.log_offset is None:
            # Deployment restored from a store that predates the
            # persisted calibration: anchor on this first measured run
            # (which therefore cannot alarm) and detect drift from the
            # next one on.  A full-application run is never faster than
            # its RQA subset, so the offset is floored at zero: an
            # absurdly low first report (a client sending 0.0) cannot
            # calibrate the model to expect near-instant runs and force
            # an alarm on the next normal one.
            state.log_offset = max(0.0, math.log(max(float(duration_s), 1e-9)) - raw[0])
        elif raw is not None and self._detector.update(
            duration_s,
            DurationPrediction(
                log_mean=float(raw[0] + state.log_offset),
                log_std=float(max(raw[1], LOG_STD_FLOOR)),
            ),
        ):
            reason = self._detector.reason()
            # Drift retunes run as quarantined adapt sessions on the
            # reduced budget: stale pre-drift history must not anchor
            # the incumbent or the calibration.
            result = self.locat.adapt(datasize_gb)
            return self._gate_candidate(
                result, datasize_gb, duration_s, "drift", reason
            )

        return OnlineDecision(
            datasize_gb=datasize_gb,
            duration_s=float("nan") if duration_s is None else duration_s,
            retuned=False,
            reason="deployed configuration still valid",
            config=state.config,
        )
