"""Tests for cross-application transfer warm-starting."""

import numpy as np
import pytest

from repro.core.dagp import DatasizeAwareGP
from repro.core.iicp import CPSResult
from repro.core.locat import LOCAT
from repro.core.tuner import BOTrace
from repro.service import HistoryStore, TuningRegistry, TuningService
from repro.sparksim import SparkSQLSimulator, get_application, list_benchmarks
from repro.sparksim.cluster import get_cluster
from repro.transfer import (
    TransferPlan,
    WorkloadFingerprint,
    build_transfer_plan,
    cps_agreement,
    fingerprint_similarity,
    rank_donors,
    select_donor,
    stored_fingerprint,
)
from repro.service.store import SOURCE_PRODUCTION, SOURCE_TUNING, ObservationRecord
from repro.sparksim.serialize import config_to_dict

#: Small LOCAT settings so tuning sessions stay cheap in tests.  n_qcsa
#: is kept well above the transfer bootstrap so savings are visible.
TINY_TUNER = {"n_qcsa": 16, "n_iicp": 10, "max_iterations": 5, "min_iterations": 2, "n_mcmc": 0}


class TestFingerprint:
    @pytest.mark.parametrize("name", ["tpch", "tpcds", "join", "scan", "aggregation"])
    def test_stored_fingerprint_follows_the_benchmark(self, tmp_path, name):
        store = HistoryStore(tmp_path)
        store.register_app("app", {"benchmark": name})
        assert stored_fingerprint(store, "app") == WorkloadFingerprint.from_application(
            get_application(name), benchmark=name
        )

    def test_stored_fingerprint_dynamic_part_from_tuning_rows(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.register_app("app", {"benchmark": "join"})
        config = config_to_dict(SparkSQLSimulator(get_cluster("x86")).space.default())
        store.append_many("app", [
            ObservationRecord(config, 100.0, 50.0, SOURCE_TUNING),
            ObservationRecord(config, 200.0, 95.0, SOURCE_TUNING),
            ObservationRecord(config, 300.0, 900.0, SOURCE_PRODUCTION),
        ])
        fingerprint = stored_fingerprint(store, "app")
        assert fingerprint.seconds_per_gb == pytest.approx((0.5 + 0.475) / 2)
        assert fingerprint == WorkloadFingerprint.from_application(
            get_application("join"), benchmark="join"
        ).with_observations([100.0, 200.0], [50.0, 95.0])

    def test_ranking_tpcds_donors_builds_the_plan_once(self, tmp_path, monkeypatch):
        from repro.sparksim import workloads

        builds = []
        build = workloads._BUILDERS["tpcds"]
        monkeypatch.setitem(workloads._BUILDERS, "tpcds", lambda: builds.append(1) or build())
        monkeypatch.setattr(workloads, "_APPLICATIONS", {})
        store = HistoryStore(tmp_path)
        config = config_to_dict(SparkSQLSimulator(get_cluster("x86")).space.default())
        cps = CPSResult(scc={"executor.cores": 0.5}, selected=("executor.cores",), threshold=0.2)
        donors = [f"donor-{i}" for i in range(4)]
        for app_id in donors:
            store.register_app(app_id, {"benchmark": "tpcds"})
            store.save_artifacts(app_id, None, cps)
            store.append_many(app_id, [
                ObservationRecord(config, 100.0 * (1 + i), 50.0 + i, SOURCE_TUNING) for i in range(6)
            ])
        target = WorkloadFingerprint.from_application(build(), benchmark="tpcds")
        assert sorted(c.app_id for c in rank_donors(store, target)) == donors
        assert len(builds) == 1

    def test_self_similarity_is_one(self):
        for benchmark in list_benchmarks():
            fingerprint = WorkloadFingerprint.from_application(get_application(benchmark))
            assert fingerprint_similarity(fingerprint, fingerprint) == pytest.approx(1.0)

    def test_similarity_symmetric_and_bounded(self):
        fingerprints = [
            WorkloadFingerprint.from_application(get_application(b))
            for b in list_benchmarks()
        ]
        for a in fingerprints:
            for b in fingerprints:
                similarity = fingerprint_similarity(a, b)
                assert 0.0 <= similarity <= 1.0
                assert similarity == pytest.approx(fingerprint_similarity(b, a))

    def test_similar_workloads_rank_above_dissimilar(self):
        tpch = WorkloadFingerprint.from_application(get_application("tpch"))
        tpcds = WorkloadFingerprint.from_application(get_application("tpcds"))
        scan = WorkloadFingerprint.from_application(get_application("scan"))
        assert fingerprint_similarity(tpch, tpcds) > fingerprint_similarity(tpch, scan)

    def test_category_and_stage_mixes_are_distributions(self):
        fingerprint = WorkloadFingerprint.from_application(get_application("tpcds"))
        assert sum(fingerprint.category_mix.values()) == pytest.approx(1.0)
        assert sum(fingerprint.stage_kind_mix.values()) == pytest.approx(1.0)


class TestCpsAgreement:
    def test_identical_profiles_agree_fully(self):
        cps = CPSResult(
            scc={"a": 0.9, "b": 0.5, "c": 0.1, "d": 0.05}, selected=("a", "b"), threshold=0.2
        )
        assert cps_agreement(cps, cps) == pytest.approx(1.0)

    def test_disjoint_profiles_do_not_agree(self):
        a = CPSResult(
            scc={"a": 0.9, "b": 0.8, "c": 0.1, "d": 0.05}, selected=("a", "b"), threshold=0.2
        )
        b = CPSResult(
            scc={"a": 0.05, "b": 0.1, "c": 0.8, "d": 0.9}, selected=("c", "d"), threshold=0.2
        )
        assert cps_agreement(a, b) < 0.25


class TestDonorSelection:
    def test_empty_store_has_no_donor(self, tmp_path):
        store = HistoryStore(tmp_path)
        target = WorkloadFingerprint.from_application(get_application("join"))
        assert rank_donors(store, target) == []
        assert select_donor(store, target) is None

    def test_unbootstrapped_tenant_is_not_a_donor(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        registry.register("idle", "join", seed=1, tuner=TINY_TUNER)
        target = WorkloadFingerprint.from_application(get_application("join"))
        # Registered but never tuned: no artifacts, no observations.
        assert select_donor(registry.store, target) is None

    def test_ranking_prefers_the_similar_workload(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        registry.register("scan-app", "scan", seed=1, tuner=TINY_TUNER)
        registry.observe("scan-app", 100.0)
        registry.register("join-app", "join", seed=1, tuner=TINY_TUNER)
        registry.observe("join-app", 100.0)
        target = WorkloadFingerprint.from_application(get_application("join"))
        ranked = rank_donors(registry.store, target)
        assert [c.app_id for c in ranked][0] == "join-app"
        assert ranked[0].similarity > ranked[1].similarity

    def test_exclude_prevents_self_donation(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        registry.register("app", "join", seed=1, tuner=TINY_TUNER)
        registry.observe("app", 100.0)
        target = WorkloadFingerprint.from_application(get_application("join"))
        assert select_donor(registry.store, target, exclude=("app",)) is None

    def test_plan_caps_observations_and_keeps_the_best(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        registry.register("app", "join", seed=1, tuner=TINY_TUNER)
        registry.observe("app", 100.0)
        target = WorkloadFingerprint.from_application(get_application("join"))
        candidate = select_donor(registry.store, target)
        all_rows = registry.store.observations("app", source="tuning")
        best = min(r.duration_s for r in all_rows)
        for cap in (1, 5):  # cap=1 regression: [-0:] must not keep the tail
            plan = build_transfer_plan(registry.store, candidate, max_observations=cap)
            assert len(plan.observations) <= cap
            assert best in [duration for _, _, duration in plan.observations]
        with pytest.raises(ValueError):
            build_transfer_plan(registry.store, candidate, max_observations=0)


class TestTransferWarmStart:
    def _cold(self, tmp_path, benchmark, seed, datasize):
        registry = TuningRegistry(HistoryStore(tmp_path / "cold"))
        registry.register("target", benchmark, seed=seed, tuner=TINY_TUNER)
        decision = registry.observe("target", datasize)
        return registry, decision

    def test_no_donor_is_bit_for_bit_cold_start(self, tmp_path):
        cold_registry, cold = self._cold(tmp_path, "join", 3, 100.0)
        warm_registry = TuningRegistry(HistoryStore(tmp_path / "warm"))
        warm_registry.register(
            "target", "join", seed=3, tuner=TINY_TUNER, warm_start="transfer"
        )
        session = warm_registry.get("target")
        assert session.locat.transfer_from is None
        assert session.locat.transfer_state == "none"
        warm = warm_registry.observe("target", 100.0)

        cold_history = [t.duration_s for t in cold_registry.get("target").locat.objective.history]
        warm_history = [t.duration_s for t in session.locat.objective.history]
        assert warm_history == cold_history
        assert warm.config == cold.config
        assert warm.result.best_duration_s == cold.result.best_duration_s

    def test_accepted_transfer_saves_evaluations(self, tmp_path):
        cold_registry, cold = self._cold(tmp_path, "join", 3, 100.0)
        registry = TuningRegistry(HistoryStore(tmp_path / "warm"))
        registry.register("donor", "join", seed=3, tuner=TINY_TUNER)
        registry.observe("donor", 100.0)
        registry.register(
            "target", "join", seed=3, tuner=TINY_TUNER, warm_start="transfer"
        )
        session = registry.get("target")
        assert session.locat.transfer_from.donor_app_id == "donor"
        warm = registry.observe("target", 100.0)

        assert session.locat.transfer_state == "accepted"
        assert warm.result.evaluations < cold.result.evaluations
        # Tiny budgets are noisy; the strict quality bound lives in
        # benchmarks/bench_transfer_warmstart.py with real budgets.
        assert warm.result.best_duration_s <= cold.result.best_duration_s * 1.25
        assert warm.result.details["transfer"] == "accepted"
        assert warm.result.details["transfer_donor"] == "donor"

    def test_donor_rows_never_persist_into_the_target_history(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        registry.register("donor", "join", seed=3, tuner=TINY_TUNER)
        registry.observe("donor", 100.0)
        registry.register(
            "target", "join", seed=3, tuner=TINY_TUNER, warm_start="transfer"
        )
        registry.observe("target", 100.0)
        session = registry.get("target")
        assert session.locat._transfer_observations  # the prior exists...
        # ...but neither the exposed history nor the store contains it.
        persisted = registry.store.observations("target", source="tuning")
        assert len(persisted) == len(session.locat.observation_history)

    def test_low_agreement_rejects_and_completes_cold_bootstrap(self, x86):
        simulator = SparkSQLSimulator(get_cluster("x86"))
        app = get_application("join")
        donor = LOCAT(simulator, app, rng=3, **{k: v for k, v in TINY_TUNER.items()})
        donor.tune(100.0)
        plan = TransferPlan(
            donor_app_id="donor",
            donor_benchmark="join",
            similarity=1.0,
            cps=donor.iicp_result.cps,
            fingerprint=WorkloadFingerprint.from_application(app),
            observations=tuple(donor.observation_history),
            min_agreement=1.01,  # unreachable: force rejection
        )
        target = LOCAT(
            simulator, app, rng=3, transfer_from=plan,
            **{k: v for k, v in TINY_TUNER.items()},
        )
        target.bootstrap(100.0)
        assert target.transfer_state == "rejected"
        assert not target._transfer_observations
        # The bootstrap completed to the full cold budget.
        assert target.objective.n_evaluations == TINY_TUNER["n_qcsa"]

    def test_registration_rejects_unknown_warm_start(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        with pytest.raises(ValueError, match="warm_start"):
            registry.register("app", "join", warm_start="lukewarm")

    def test_transfer_provenance_survives_restart(self, tmp_path):
        store_dir = tmp_path / "store"
        registry = TuningRegistry(HistoryStore(store_dir))
        registry.register("donor", "join", seed=3, tuner=TINY_TUNER)
        registry.observe("donor", 100.0)
        registry.register(
            "target", "join", seed=3, tuner=TINY_TUNER, warm_start="transfer"
        )
        registry.observe("target", 100.0)
        before = registry.get("target")._transfer_status()
        assert before["state"] == "accepted" and before["donor"] == "donor"

        restarted = TuningRegistry(HistoryStore(store_dir))
        session = restarted.get("target")
        assert session.locat.transfer_from is None  # restored from own history
        after = session.status()["transfer"]
        # The status endpoint still reports which donor seeded this tenant.
        assert after["state"] == "accepted"
        assert after["donor"] == "donor"
        assert after["agreement"] == pytest.approx(before["agreement"])

    def test_anchor_runs_even_when_bootstrap_called_separately(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        registry.register("donor", "join", seed=3, tuner=TINY_TUNER)
        registry.observe("donor", 100.0)
        registry.register(
            "target", "join", seed=3, tuner=TINY_TUNER, warm_start="transfer"
        )
        locat = registry.get("target").locat
        locat.bootstrap(100.0)
        assert locat.transfer_state == "accepted"
        donor_best = min(
            locat._transfer_observations, key=lambda o: o.rqa_duration_s
        ).config
        locat.tune(100.0)
        # The donor's best configuration was re-measured exactly once on
        # the target, even though bootstrap() and tune() were separate.
        anchors = [o for o in locat._observations if o.config == donor_best]
        assert len(anchors) >= 1
        assert locat._transfer_anchor_measured

    def test_registration_writes_only_app_json(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        registry.register("app", "scan", seed=1, tuner=TINY_TUNER)
        assert [p.name for p in (tmp_path / "app").iterdir()] == ["app.json"]

    def test_http_registration_carries_warm_start(self, tmp_path):
        from repro.service import TuningClient

        with TuningService(str(tmp_path), port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            status = client.register_app(
                "app", "join", tuner=TINY_TUNER, warm_start="transfer"
            )
            assert status["warm_start"] == "transfer"
            assert status["transfer"]["state"] == "none"  # empty store: no donor
            with pytest.raises(Exception):
                client.register_app("bad", "join", warm_start="lukewarm")


class TestDagpFidelity:
    def _data(self, rng, n=8):
        x = rng.random((n, 3))
        ds = np.full(n, 100.0)
        y = 50.0 + 40.0 * x[:, 0] + 5.0 * rng.random(n)
        return x, ds, y

    def test_zero_fidelities_match_no_fidelities(self):
        rng = np.random.default_rng(5)
        x, ds, y = self._data(rng)
        plain = DatasizeAwareGP(3, n_mcmc=0).fit(x, ds, y)
        zeros = DatasizeAwareGP(3, n_mcmc=0).fit(x, ds, y, fidelities=np.zeros(len(y)))
        query = rng.random((4, 3))
        mean_a, std_a = plain.predict(query, 100.0)
        mean_b, std_b = zeros.predict(query, 100.0)
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(std_a, std_b)

    def test_own_observations_outvote_a_biased_donor(self):
        rng = np.random.default_rng(7)
        x, ds, y = self._data(rng, n=10)
        # Donor rows at the same configurations claim 4x the duration.
        donor_x, donor_ds, donor_y = x.copy(), ds.copy(), y * 4.0
        model = DatasizeAwareGP(3, n_mcmc=0).fit(
            np.vstack([x, donor_x]),
            np.concatenate([ds, donor_ds]),
            np.concatenate([y, donor_y]),
            fidelities=np.concatenate([np.zeros(len(y)), np.ones(len(donor_y))]),
        )
        predicted = model.predict_duration(x, 100.0)
        # Predictions at the target's own points stay near the target's
        # durations, far from the donor's 4x-biased claims.
        assert np.all(predicted < y * 2.0)

    def test_fidelity_validation(self):
        rng = np.random.default_rng(9)
        x, ds, y = self._data(rng)
        model = DatasizeAwareGP(3, n_mcmc=0)
        with pytest.raises(ValueError):
            model.fit(x, ds, y, fidelities=np.ones(len(y) - 1))
        with pytest.raises(ValueError):
            model.fit(x, ds, y, fidelities=-np.ones(len(y)))

    def test_acquisition_queries_at_own_fidelity(self):
        rng = np.random.default_rng(11)
        x, ds, y = self._data(rng)
        model = DatasizeAwareGP(3, n_mcmc=0).fit(
            x, ds, y, fidelities=np.concatenate([np.zeros(4), np.ones(4)])
        )
        ei = model.acquisition(rng.random((6, 3)), 100.0, float(np.min(y)))
        assert ei.shape == (6,)
        assert np.all(np.isfinite(ei)) and np.all(ei >= 0)


class TestBOTraceFidelity:
    def test_best_ignores_donor_rows(self):
        trace = BOTrace(
            points=[np.array([0.1]), np.array([0.9])],
            datasizes=[100.0, 100.0],
            durations=[10.0, 5.0],  # the donor row is "faster"...
            fidelities=[0.0, 1.0],
        )
        point, duration = trace.best(100.0)
        # ...but another application's duration must never become the
        # incumbent.
        assert duration == 10.0
        assert point[0] == 0.1

    def test_best_raises_with_only_donor_rows(self):
        trace = BOTrace(
            points=[np.array([0.5])], datasizes=[100.0], durations=[5.0], fidelities=[1.0]
        )
        with pytest.raises(RuntimeError):
            trace.best()

    def test_traces_without_fidelities_stay_valid(self):
        trace = BOTrace(
            points=[np.array([0.5])], datasizes=[100.0], durations=[5.0]
        )
        _, duration = trace.best(100.0)
        assert duration == 5.0
