"""Multi-tenant application registry.

One :class:`AppSession` per registered application, each wrapping an
:class:`~repro.core.online.OnlineController` (and therefore a
:class:`~repro.core.locat.LOCAT`) plus the bookkeeping that keeps the
:class:`~repro.service.store.HistoryStore` in sync: every observation
LOCAT makes is appended to the app's run table, the QCSA/CPS artifacts
are saved after the first bootstrap, and the deployed state is rewritten
after every job.

On construction the registry rehydrates every application found in the
store: bootstrapped apps come back with :attr:`LOCAT.is_bootstrapped`
already true (zero simulator runs), so a restarted service resumes
tuning without re-paying the QCSA/IICP bootstrap.

Registration may also request a **cross-application** warm start
(``warm_start="transfer"``): the registry fingerprints the new workload,
ranks the store's existing tenants as donors
(:mod:`repro.transfer.donor`), and — when a sufficiently similar one
exists — hands LOCAT a :class:`~repro.transfer.donor.TransferPlan` so
the new tenant's bootstrap shrinks to a few runs seeded by the donor's
history.  With no eligible donor the registration degrades to a plain
cold start (bit for bit).  A donor's static fingerprint is recomputed
from the benchmark named in its ``app.json``; nothing else is stored
for it.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field

from repro.core.locat import LOCAT, MIN_RESTORE_OBSERVATIONS
from repro.core.online import OnlineController, OnlineDecision
from repro.replay import REPLAY_EVAL_MODES
from repro.service.store import (
    SOURCE_PRODUCTION,
    SOURCE_TUNING,
    HistoryStore,
    ObservationRecord,
)
from repro.sparksim import SparkSQLSimulator, get_application, list_benchmarks
from repro.sparksim.cluster import get_cluster
from repro.sparksim.serialize import config_from_dict, config_to_dict
from repro.transfer import (
    WorkloadFingerprint,
    build_transfer_plan,
    select_donor,
)

#: LOCAT keyword arguments a tenant may override at registration time.
TUNER_KEYS = frozenset(
    {
        "n_qcsa", "n_iicp",
        "min_iterations", "max_iterations", "ei_threshold", "n_mcmc",
        "use_iicp", "use_dagp", "use_polish", "n_workers",
        "n_adapt_iterations", "replay_eval", "replay_capacity", "n_replays",
    }
)

#: OnlineController keyword arguments a tenant may override.
CONTROLLER_KEYS = frozenset({"datasize_margin", "shadow_runs", "ab_alpha"})

#: How a new tenant's first bootstrap may be seeded.
WARM_START_MODES = ("cold", "transfer")


# ----------------------------------------------------------------------
# Registration validators
# ----------------------------------------------------------------------
# Everything a tenant may pass at registration is validated by the
# ``_validate_*`` helpers below, and :meth:`TuningRegistry.register`
# calls every one of them *before* its first store write.  Anything
# that only failed later — inside the LOCAT constructor, say — would
# leave the invalid metadata persisted in ``app.json`` and crash every
# subsequent rehydration of the whole service (the poisoning bug the
# ``validate-before-persist`` check now guards against).


def _validate_benchmark(benchmark: str) -> None:
    if benchmark not in list_benchmarks():
        raise ValueError(
            f"unknown benchmark {benchmark!r}; expected one of {list_benchmarks()}"
        )


def _validate_warm_start(warm_start: str) -> None:
    if warm_start not in WARM_START_MODES:
        raise ValueError(
            f"warm_start must be one of {WARM_START_MODES}, got {warm_start!r}"
        )


def _validate_tuner(tuner: dict) -> None:
    if not TUNER_KEYS.issuperset(tuner):
        raise ValueError(f"unknown tuner settings: {sorted(set(tuner) - TUNER_KEYS)}")
    for key in ("n_workers", "n_adapt_iterations", "replay_capacity", "n_replays"):
        if key in tuner:
            value = tuner[key]
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(
                    f"tuner.{key} must be a positive integer, got {value!r}"
                )
    if tuner.get("replay_eval", "off") not in REPLAY_EVAL_MODES:
        raise ValueError(
            f"tuner.replay_eval must be one of {REPLAY_EVAL_MODES}, "
            f"got {tuner['replay_eval']!r}"
        )


def _validate_controller(controller: dict) -> None:
    if not CONTROLLER_KEYS.issuperset(controller):
        raise ValueError(
            f"unknown controller settings: {sorted(set(controller) - CONTROLLER_KEYS)}"
        )
    if "shadow_runs" in controller:
        value = controller["shadow_runs"]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(
                f"controller.shadow_runs must be a positive integer, got {value!r}"
            )
    if "ab_alpha" in controller:
        value = controller["ab_alpha"]
        if (
            not isinstance(value, (int, float))
            or isinstance(value, bool)
            or not 0.0 < float(value) < 1.0
        ):
            raise ValueError(
                "controller.ab_alpha must be a number strictly between "
                f"0 and 1, got {value!r}"
            )


def _drop_retired_settings(app_id: str, meta: dict) -> dict:
    """A copy of persisted tenant metadata without retired settings.

    Earlier versions accepted tenant keys that no longer exist (such
    as ``tuner.surrogate_backend`` or ``controller.promotion``).  A
    store carrying one still rehydrates: each such setting is dropped
    with one warning on stderr and the tenant runs on what replaced it.
    Registration keeps rejecting them (:func:`_validate_tuner`,
    :func:`_validate_controller`).
    """
    tuner = dict(meta.get("tuner") or {})
    controller = dict(meta.get("controller") or {})
    retired = [("tuner", key) for key in sorted(set(tuner) - TUNER_KEYS)]
    retired += [("controller", key) for key in sorted(set(controller) - CONTROLLER_KEYS)]
    for section, key in retired:
        settings = tuner if section == "tuner" else controller
        print(
            f"warning: {app_id!r}: ignoring retired setting "
            f"{section}.{key}={settings.pop(key)!r}",
            file=sys.stderr,
        )
    return {**meta, "tuner": tuner, "controller": controller}


class QuarantinedApplicationError(RuntimeError):
    """The tenant exists but its persisted state failed to rehydrate.

    Distinct from ``KeyError`` (unknown application) so the HTTP layer
    can answer 503 with the stored corruption message instead of a
    misleading 404 — a client must never conclude the app was never
    registered and try to re-register it.
    """


@dataclass
class AppSession:
    """One tenant: a live controller plus its persistence bookkeeping."""

    app_id: str
    benchmark: str
    cluster: str
    controller: OnlineController
    #: How the first bootstrap is seeded ("cold" or "transfer").
    warm_start: str = "cold"
    #: Persisted transfer outcome (donor, similarity, agreement, state)
    #: for sessions rehydrated after their transfer bootstrap resolved.
    transfer_provenance: dict | None = None
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: Prefix of ``locat.observation_history`` already in the store.
    persisted_observations: int = 0
    #: Whether this session was warm-started from the store.
    restored: bool = False
    n_observes: int = 0
    n_retunes: int = 0

    @property
    def locat(self) -> LOCAT:
        return self.controller.locat

    def _transfer_status(self) -> dict:
        """Live transfer info, falling back to the persisted provenance
        for sessions rehydrated after their transfer already resolved."""
        locat = self.locat
        if locat.transfer_from is not None:
            return {
                "state": locat.transfer_state,
                "donor": locat.transfer_from.donor_app_id,
                "similarity": locat.transfer_from.similarity,
                "refined_similarity": locat.transfer_similarity,
                "agreement": locat.transfer_agreement,
            }
        if self.transfer_provenance is not None:
            p = self.transfer_provenance
            return {
                "state": p.get("state"),
                "donor": p.get("donor"),
                "similarity": p.get("similarity"),
                "refined_similarity": p.get("refined_similarity"),
                "agreement": p.get("agreement"),
            }
        return {"state": locat.transfer_state, "donor": None,
                "similarity": None, "refined_similarity": None, "agreement": None}

    def planned_slots(self, datasize_gb: float) -> int:
        """Scheduler-slot footprint of an observe at this datasize.

        Reserve the session's full evaluation parallelism only when the
        controller predicts a tuning session
        (:meth:`~repro.core.online.OnlineController.would_retune`).
        Routine steady-state observes record a run and check drift
        without any evaluations, so they take one slot — reserving
        ``n_workers`` for them would serialize cross-tenant throughput
        on work with zero parallelism.  A *drift*-triggered retune is
        not predictable here and transiently exceeds its 1-slot
        reservation, bounded by ``n_workers - 1`` extra threads.
        """
        if self.controller.would_retune(datasize_gb):
            return self.locat.n_workers
        return 1

    def status(self) -> dict:
        """JSON-safe snapshot served by ``GET /apps/<id>``."""
        locat = self.locat
        return {
            "app_id": self.app_id,
            "benchmark": self.benchmark,
            "cluster": self.cluster,
            "bootstrapped": locat.is_bootstrapped,
            "deployed": self.controller.is_deployed,
            "restored": self.restored,
            "warm_start": self.warm_start,
            "transfer": self._transfer_status(),
            "eval_workers": locat.n_workers,
            "evaluations": locat.objective.n_evaluations,
            "overhead_hours": locat.objective.overhead_hours,
            "observations_persisted": self.persisted_observations,
            "observes": self.n_observes,
            "retunes": self.n_retunes,
            "tuned_datasizes": self.controller.tuned_datasizes,
            "drift": self.controller.drift_status(),
            "promotion": self.controller.promotion_status(),
            "replay": {
                "mode": locat.replay_eval,
                "trace_steps": locat.replay_trace.n_steps,
                "trace_next_index": locat.replay_trace.next_index,
            },
        }


class TuningRegistry:
    """Registers, rehydrates, and drives the tenant sessions."""

    def __init__(
        self,
        store: HistoryStore,
        rehydrate: bool = True,
        default_eval_workers: int = 1,
        max_eval_workers: int | None = None,
        default_warm_start: str = "cold",
        default_replay_eval: str = "off",
    ):
        if default_eval_workers < 1:
            raise ValueError("default_eval_workers must be at least 1")
        if max_eval_workers is not None and max_eval_workers < 1:
            raise ValueError("max_eval_workers must be at least 1")
        if default_warm_start not in WARM_START_MODES:
            raise ValueError(
                f"default_warm_start must be one of {WARM_START_MODES}, "
                f"got {default_warm_start!r}"
            )
        if default_replay_eval not in REPLAY_EVAL_MODES:
            raise ValueError(
                f"default_replay_eval must be one of {REPLAY_EVAL_MODES}, "
                f"got {default_replay_eval!r}"
            )
        self.store = store
        #: Warm-start mode for registrations that do not choose one.
        self.default_warm_start = default_warm_start
        #: Replay-evaluation mode for tenants that do not set
        #: ``tuner.replay_eval`` themselves (service-level default).
        #: Applied at session construction, not persisted, so changing
        #: the service default re-homes existing tenants on the next
        #: restart while explicit tenant choices stick.
        self.default_replay_eval = default_replay_eval
        #: Evaluation parallelism given to sessions whose tenants did not
        #: set ``tuner.n_workers`` themselves (service-level default).
        self.default_eval_workers = int(default_eval_workers)
        #: Operator-set ceiling on any session's evaluation parallelism.
        #: Tenant overrides are clamped to it, so no tenant can demand
        #: more concurrency than the machine was provisioned for.
        self.max_eval_workers = None if max_eval_workers is None else int(max_eval_workers)
        self._sessions: dict[str, AppSession] = {}  # guarded-by: _lock
        #: Tenants whose persisted state could not be rehydrated
        #: (app_id -> error message).  They are excluded from
        #: :attr:`app_ids` and :meth:`get` raises
        #: :class:`QuarantinedApplicationError` (HTTP 503) until the
        #: operator repairs the store — one tenant's corrupt run table
        #: must not keep the whole multi-tenant service from starting.
        self.quarantined: dict[str, str] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        if rehydrate:
            for app_id in self.store.list_apps():
                try:
                    self._sessions[app_id] = self._rehydrate(app_id)
                except Exception as exc:
                    self.quarantined[app_id] = str(exc)
                    print(
                        f"warning: quarantined application {app_id!r}: {exc}",
                        file=sys.stderr,
                    )

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(
        self,
        app_id: str,
        benchmark: str,
        cluster: str = "x86",
        seed: int = 1,
        tuner: dict | None = None,
        controller: dict | None = None,
        warm_start: str | None = None,
    ) -> AppSession:
        """Register a new application and persist its metadata.

        ``warm_start="transfer"`` asks for a cross-application warm
        start: the best-matching existing tenant (by workload
        fingerprint) donates its history to the new tenant's first
        bootstrap.  Omitted, the registry's ``default_warm_start``
        applies; with no eligible donor the registration behaves exactly
        like ``"cold"``.
        """
        _validate_benchmark(benchmark)
        warm_start = warm_start if warm_start is not None else self.default_warm_start
        _validate_warm_start(warm_start)
        tuner = dict(tuner or {})
        controller = dict(controller or {})
        # Every store write below must stay *after* these validators —
        # see the validator block's module comment (rehydration
        # poisoning); ``repro check`` enforces the ordering.
        _validate_tuner(tuner)
        _validate_controller(controller)
        meta = {
            "benchmark": benchmark,
            "cluster": cluster,
            "seed": int(seed),
            "tuner": tuner,
            "controller": controller,
            "warm_start": warm_start,
            "registered_at": time.time(),
        }
        with self._lock:
            if app_id in self._sessions:
                raise ValueError(f"application {app_id!r} is already registered")
            self.store.register_app(app_id, meta)  # also validates app_id
            session = self._build_session(app_id, meta)
            self._sessions[app_id] = session
        return session

    def get(self, app_id: str) -> AppSession:
        with self._lock:
            try:
                return self._sessions[app_id]
            except KeyError:
                if app_id in self.quarantined:
                    raise QuarantinedApplicationError(
                        f"application {app_id!r} is quarantined (its persisted "
                        f"state failed to rehydrate): {self.quarantined[app_id]}"
                    ) from None
                raise KeyError(f"unknown application {app_id!r}") from None

    def app_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def __contains__(self, app_id: str) -> bool:
        with self._lock:
            return app_id in self._sessions

    # ------------------------------------------------------------------
    # Session construction and rehydration
    # ------------------------------------------------------------------
    def _build_session(self, app_id: str, meta: dict) -> AppSession:
        simulator = SparkSQLSimulator(get_cluster(meta["cluster"]))
        app = get_application(meta["benchmark"])
        tuner_kwargs = dict(meta.get("tuner", {}))
        tuner_kwargs.setdefault("n_workers", self.default_eval_workers)
        tuner_kwargs.setdefault("replay_eval", self.default_replay_eval)
        if self.max_eval_workers is not None:
            tuner_kwargs["n_workers"] = min(
                int(tuner_kwargs["n_workers"]), self.max_eval_workers
            )
        warm_start = meta.get("warm_start", "cold")
        plan = None
        if warm_start == "transfer" and not self.store.has_artifacts(app_id):
            # A session with persisted artifacts will be restored from its
            # own history instead — a donor plan would never be consumed.
            plan = self._transfer_plan(app_id, meta["benchmark"])
        locat = LOCAT(
            simulator, app, rng=int(meta.get("seed", 1)), transfer_from=plan,
            **tuner_kwargs,
        )
        online = OnlineController(locat, **meta.get("controller", {}))
        return AppSession(
            app_id=app_id,
            benchmark=meta["benchmark"],
            cluster=meta["cluster"],
            controller=online,
            warm_start=warm_start,
        )

    def _transfer_plan(self, app_id: str, benchmark: str):
        """Best donor's history packaged for LOCAT, or None (cold start).

        Deliberately re-evaluated on every rehydration of a tenant whose
        transfer has not resolved yet: a tenant registered when the
        store had no eligible donor picks one up on a later restart, and
        an unresolved tenant may be offered a better donor than the one
        proposed before the crash.  Once the transfer bootstrap resolves
        the outcome is pinned in ``transfer.json`` and this is no longer
        called.
        """
        target = WorkloadFingerprint.from_application(
            get_application(benchmark), benchmark=benchmark
        )
        candidate = select_donor(self.store, target, exclude=(app_id,))
        if candidate is None:
            return None
        return build_transfer_plan(self.store, candidate)

    def _rehydrate(self, app_id: str) -> AppSession:
        """Rebuild one session from the store, warm-starting when possible."""
        meta = _drop_retired_settings(app_id, self.store.app_meta(app_id))
        session = self._build_session(app_id, meta)
        session.transfer_provenance = self.store.load_transfer(app_id)
        rows = self.store.observations(app_id)
        tuning_rows = [r for r in rows if r.source == SOURCE_TUNING]
        if session.locat.replay_eval != "off":
            # The replay trace is the newest production rows: the n-th
            # production row was recorded as trace step n.
            production = [r for r in rows if r.source == SOURCE_PRODUCTION]
            recent = production[-session.locat.replay_trace.capacity:]
            session.locat.restore_replay_trace(
                [
                    (config_from_dict(r.config), r.datasize_gb, r.duration_s)
                    for r in recent
                ],
                first_index=len(production) - len(recent),
            )
        qcsa, cps = self.store.load_artifacts(app_id)
        if cps is not None and len(tuning_rows) >= MIN_RESTORE_OBSERVATIONS:
            session.locat.restore(
                qcsa,
                cps,
                [
                    (config_from_dict(r.config), r.datasize_gb, r.duration_s)
                    for r in tuning_rows
                ],
            )
            session.persisted_observations = len(tuning_rows)
            session.restored = True
        deployment = self.store.load_deployment(app_id)
        if deployment is not None:
            # Stores written by earlier versions may carry more keys
            # (the retired detectors' name and window); they are
            # ignored.  A detector_state written by another detector
            # restores only the keys Page-Hinkley shares with it (the
            # residual baseline); the rest starts fresh.
            session.controller.restore_state(
                config_from_dict(deployment["config"]),
                deployment["tuned_datasizes"],
                detector_state=deployment.get("detector_state"),
                log_offset=deployment.get("log_offset"),
            )
            session.locat.restore_stale_boundary(
                deployment.get("stale_tuning_rows", 0)
            )
            # An in-flight shadow (and the promote/reject counters)
            # resumes exactly where the previous process stopped — a
            # challenger mid-evaluation must neither vanish nor deploy.
            # A tenant that never opened a shadow simply keeps its
            # deployed config.
            session.controller.restore_promotion(deployment.get("promotion"))
        return session

    # ------------------------------------------------------------------
    # The one write path: process a production observation
    # ------------------------------------------------------------------
    def observe(
        self, app_id: str, datasize_gb: float, duration_s: float | None = None
    ) -> OnlineDecision:
        """Feed one production run through the app's controller.

        Thread-safe per application; everything the decision changed —
        new tuning observations, first-bootstrap artifacts, the deployed
        state — is persisted before returning.
        """
        return self.observe_batch(app_id, [(datasize_gb, duration_s)])[0]

    def observe_batch(
        self, app_id: str, observations: list[tuple[float, float | None]]
    ) -> list[OnlineDecision]:
        """Feed a batch of production runs through the app's controller.

        Decisions are made strictly in list order (the drift window is
        order-sensitive), but the run-table rows of the whole batch land
        via one :meth:`HistoryStore.append_many` call — one store-lock
        acquisition and one fsync — and the deployed state is rewritten
        once, so batched ingestion amortizes the durability cost that
        dominates a steady-state observe.
        """
        if not observations:
            raise ValueError("observations must be a non-empty list")
        session = self.get(app_id)
        with session.lock:
            controller = session.controller
            now = time.time()
            decisions: list[OnlineDecision] = []
            records: list[ObservationRecord] = []
            persisted = session.persisted_observations
            for datasize_gb, duration_s in observations:
                # The measured duration belongs to the configuration that
                # was deployed when the run executed — capture it before
                # observe() may retune and swap the deployment.
                measured_config = (
                    controller.deployed_config if controller.is_deployed else None
                )
                decision = controller.observe(datasize_gb, duration_s)
                persisted = self._collect_records(
                    session, decision, duration_s, measured_config, now,
                    persisted, records,
                )
                decisions.append(decision)
            self.store.append_many(session.app_id, records)
            session.persisted_observations = persisted
            self._persist_state(session, now)
            session.n_observes += len(decisions)
            session.n_retunes += sum(1 for d in decisions if d.retuned)
        return decisions

    def _collect_records(
        self,
        session: AppSession,
        decision: OnlineDecision,
        duration_s: float | None,
        measured_config,
        now: float,
        persisted: int,
        records: list[ObservationRecord],
    ) -> int:
        """Append one decision's new run-table rows to ``records``.

        Returns the new persisted-prefix length of the LOCAT observation
        history; nothing is written here — the caller lands the whole
        batch in one ``append_many``.
        """
        history = session.locat.observation_history
        records.extend(
            ObservationRecord(
                config=config_to_dict(config),
                datasize_gb=ds,
                duration_s=dur,
                source=SOURCE_TUNING,
                timestamp=now,
            )
            for config, ds, dur in history[persisted:]
        )
        if duration_s is not None and measured_config is not None:
            # No production row before the first deployment: a duration
            # reported then was measured under an unknown configuration.
            records.append(
                ObservationRecord(
                    config=config_to_dict(measured_config),
                    datasize_gb=decision.datasize_gb,
                    duration_s=float(duration_s),
                    source=SOURCE_PRODUCTION,
                    timestamp=now,
                )
            )
        return len(history)

    def _persist_state(self, session: AppSession, now: float) -> None:
        """Persist artifacts/transfer/deployment state after decisions."""
        locat = session.locat
        if locat.is_bootstrapped and not self.store.has_artifacts(session.app_id):
            assert locat.iicp_result is not None
            self.store.save_artifacts(session.app_id, locat.qcsa_result, locat.iicp_result.cps)
        if (
            locat.transfer_from is not None
            and locat.transfer_accepted is not None
            and session.transfer_provenance is None
        ):
            # The transfer bootstrap resolved in this process: persist
            # which donor seeded the tenant (GET /apps/<id> keeps
            # reporting it after a restart, when the live plan is gone).
            session.transfer_provenance = {
                "state": locat.transfer_state,
                "donor": locat.transfer_from.donor_app_id,
                "similarity": locat.transfer_from.similarity,
                # The value the accept/reject gate actually compared
                # against min_similarity (ranking similarity + the
                # dynamic seconds-per-GB component).
                "refined_similarity": locat.transfer_similarity,
                "agreement": locat.transfer_agreement,
                "saved_at": now,
            }
            self.store.save_transfer(session.app_id, session.transfer_provenance)
        # Terminal promote/reject decisions land in winners.json *before*
        # the deployment snapshot drops the finished shadow: a crash
        # between the two writes re-runs the shadow's last step on
        # restart (at worst a duplicate record, distinguishable by
        # decided_at), never a promoted config without its provenance.
        events = session.controller.drain_promotion_events()
        if events:
            self.store.append_winners(session.app_id, events)
        if session.controller.is_deployed:
            state = {
                "config": config_to_dict(session.controller.deployed_config),
                "tuned_datasizes": session.controller.tuned_datasizes,
                "detector_state": session.controller.detector_state(),
                "log_offset": session.controller.log_offset,
                # The drift-quarantine boundary travels with the
                # calibration it was anchored against.
                "stale_tuning_rows": session.locat.stale_before,
                "updated_at": now,
            }
            promotion = session.controller.promotion_state()
            if promotion is not None:
                # Absent until the tenant's first shadow opens.
                state["promotion"] = promotion
            self.store.save_deployment(session.app_id, state)
