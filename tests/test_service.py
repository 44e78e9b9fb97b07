"""Tests for the tuning service: store, scheduler, registry, HTTP API."""

import json
import math
import os
import threading
import time

import pytest

from timing_helpers import wait_until
from repro.core.iicp import CPSResult
from repro.core.locat import MIN_RESTORE_OBSERVATIONS
from repro.core.tuner import DEFAULT_EI_THRESHOLD
from repro.core.qcsa import QCSAResult
from repro.replay import DEFAULT_N_REPLAYS, DEFAULT_TRACE_CAPACITY
from repro.service import (
    HistoryStore,
    JobScheduler,
    ObservationRecord,
    QuarantinedApplicationError,
    ServiceError,
    TuningClient,
    TuningRegistry,
    TuningService,
)
from repro.service.store import SOURCE_PRODUCTION, SOURCE_TUNING
from repro.sparksim.serialize import (
    config_from_dict,
    config_to_dict,
    metrics_from_dict,
    metrics_to_dict,
)

#: Small LOCAT settings so tuning sessions stay cheap in tests.
TINY_TUNER = {"n_qcsa": 10, "n_iicp": 8, "max_iterations": 6, "min_iterations": 3, "n_mcmc": 0}


class TestSerialization:
    def test_config_round_trip(self, space_x86, rng):
        config = space_x86.sample(rng)
        data = config_to_dict(config)
        assert config_from_dict(data) == config

    def test_config_rejects_unknown_parameter(self, space_x86):
        data = config_to_dict(space_x86.default())
        data["not.a.param"] = 1
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_config_rejects_missing_parameter(self, space_x86):
        data = config_to_dict(space_x86.default())
        del data["executor.memory"]
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_metrics_round_trip(self, sim_x86, scan_app):
        metrics = sim_x86.run(scan_app, sim_x86.space.default(), 100.0, rng=3)
        rebuilt = metrics_from_dict(metrics_to_dict(metrics))
        assert rebuilt == metrics


class TestHistoryStore:
    def test_register_and_meta(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {"benchmark": "join", "cluster": "x86"})
        assert store.list_apps() == ["app-1"]
        assert store.has_app("app-1")
        assert store.app_meta("app-1")["benchmark"] == "join"

    def test_duplicate_registration_rejected(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        with pytest.raises(ValueError):
            store.register_app("app-1", {})

    def test_bad_app_id_rejected(self, tmp_path):
        store = HistoryStore(tmp_path)
        for bad in ("", "../escape", "a/b", ".hidden", "x" * 65):
            with pytest.raises(ValueError):
                store.register_app(bad, {})

    def test_unknown_app_meta_raises(self, tmp_path):
        with pytest.raises(KeyError):
            HistoryStore(tmp_path).app_meta("ghost")

    def test_run_table_round_trip(self, tmp_path, space_x86):
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        config = config_to_dict(space_x86.default())
        store.append_many("app-1", [
            ObservationRecord(config, 100.0, 42.0, SOURCE_TUNING),
            ObservationRecord(config, 100.0, 55.0, SOURCE_PRODUCTION),
        ])
        store.append("app-1", ObservationRecord(config, 120.0, 47.5, SOURCE_TUNING))
        rows = store.observations("app-1")
        assert [r.duration_s for r in rows] == [42.0, 55.0, 47.5]
        assert [r.datasize_gb for r in rows] == [100.0, 100.0, 120.0]
        assert config_from_dict(rows[0].config) == space_x86.default()
        assert [r.duration_s for r in store.observations("app-1", source=SOURCE_TUNING)] == [42.0, 47.5]

    def test_legacy_reduced_column_is_ignored(self, tmp_path, space_x86):
        """Older stores wrote a ``reduced`` column; rows carrying it still
        parse, and new rows no longer write it."""
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        config = config_to_dict(space_x86.default())
        legacy = {"config": config, "datasize_gb": 100.0, "duration_s": 42.0,
                  "source": SOURCE_TUNING, "reduced": True, "timestamp": 1.0}
        (tmp_path / "app-1" / "runs.jsonl").write_text(json.dumps(legacy) + "\n")
        store.append("app-1", ObservationRecord(config, 100.0, 55.0, SOURCE_PRODUCTION))
        rows = store.observations("app-1")
        assert [(r.source, r.duration_s) for r in rows] == [
            (SOURCE_TUNING, 42.0), (SOURCE_PRODUCTION, 55.0),
        ]
        newest = json.loads((tmp_path / "app-1" / "runs.jsonl").read_text().splitlines()[-1])
        assert "reduced" not in newest

    def test_datasize_identity_survives_json_round_trip(self, tmp_path, space_x86):
        """100 (int), 100.0 (float), and "100" (string) are one history
        key, before and after the store's JSON round trip."""
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        config = config_to_dict(space_x86.default())
        store.append_many("app-1", [
            ObservationRecord(config, 100, 42.0, SOURCE_TUNING),
            ObservationRecord(config, 100.0, 43.0, SOURCE_TUNING),
            ObservationRecord(config, "100", 44.0, SOURCE_TUNING),
        ])
        rows = store.observations("app-1")
        sizes = {r.datasize_gb for r in rows}
        assert sizes == {100.0}
        assert all(isinstance(r.datasize_gb, float) for r in rows)
        # Written records equal re-read records (identity, not just ==).
        assert rows == [
            ObservationRecord(config, 100.0, 42.0, SOURCE_TUNING),
            ObservationRecord(config, 100.0, 43.0, SOURCE_TUNING),
            ObservationRecord(config, 100.0, 44.0, SOURCE_TUNING),
        ]

    def test_bad_source_rejected(self, space_x86):
        with pytest.raises(ValueError):
            ObservationRecord(config_to_dict(space_x86.default()), 1.0, 1.0, "guess")

    def test_torn_trailing_line_dropped(self, tmp_path, space_x86):
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        store.append("app-1", ObservationRecord(config_to_dict(space_x86.default()), 1.0, 2.0, SOURCE_TUNING))
        with open(tmp_path / "app-1" / "runs.jsonl", "a") as handle:
            handle.write('{"config": {"trunca')  # killed mid-append
        rows = store.observations("app-1")
        assert len(rows) == 1 and rows[0].duration_s == 2.0

    def test_interior_corruption_raises_instead_of_truncating(self, tmp_path, space_x86):
        """A corrupt line mid-file is disk damage, not a torn append: it
        must raise, not silently hand back a fraction of the history."""
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        config = config_to_dict(space_x86.default())
        store.append_many("app-1", [
            ObservationRecord(config, 1.0, 2.0, SOURCE_TUNING),
            ObservationRecord(config, 1.0, 3.0, SOURCE_TUNING),
        ])
        path = tmp_path / "app-1" / "runs.jsonl"
        lines = path.read_text().splitlines()
        lines.insert(1, "GARBAGE NOT JSON")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            store.observations("app-1")

    def test_newline_terminated_garbage_raises_even_at_eof(self, tmp_path, space_x86):
        """A torn append can only lose a *suffix* of the write, so a
        complete (newline-terminated) but invalid line is disk damage
        wherever it sits — including at the end of the file."""
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        store.append("app-1", ObservationRecord(config_to_dict(space_x86.default()), 1.0, 2.0, SOURCE_TUNING))
        with open(tmp_path / "app-1" / "runs.jsonl", "a") as handle:
            handle.write('{"damaged": true}\n')
        with pytest.raises(ValueError, match="corrupt run table"):
            store.observations("app-1")

    def test_append_after_torn_tail_repairs_instead_of_corrupting(self, tmp_path, space_x86):
        """Appending after a crash's torn trailing line must not weld the
        new record onto the torn bytes — that would silently lose the
        record and turn the crash artifact into interior corruption that
        blocks every later replay (and service rehydration)."""
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        config = config_to_dict(space_x86.default())
        store.append("app-1", ObservationRecord(config, 1.0, 2.0, SOURCE_TUNING))
        with open(tmp_path / "app-1" / "runs.jsonl", "a") as handle:
            handle.write('{"config": {"trunca')  # killed mid-append, no newline
        store.append("app-1", ObservationRecord(config, 1.0, 3.0, SOURCE_TUNING))
        store.append("app-1", ObservationRecord(config, 1.0, 4.0, SOURCE_TUNING))
        rows = store.observations("app-1")  # must not raise
        assert [r.duration_s for r in rows] == [2.0, 3.0, 4.0]

    def test_newlineless_final_record_is_not_durable(self, tmp_path, space_x86):
        """A final line whose newline never hit the disk is not durable,
        even when the JSON payload happens to be complete: replay must
        not count a record the next append will truncate away."""
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        config = config_to_dict(space_x86.default())
        store.append("app-1", ObservationRecord(config, 1.0, 2.0, SOURCE_TUNING))
        record = ObservationRecord(config, 1.0, 9.0, SOURCE_TUNING)
        import json as _json
        with open(tmp_path / "app-1" / "runs.jsonl", "a") as handle:
            handle.write(_json.dumps(record.to_json()))  # crash before the \n
        assert [r.duration_s for r in store.observations("app-1")] == [2.0]
        # The append path truncates the same tail: replay and disk agree.
        store.append("app-1", ObservationRecord(config, 1.0, 3.0, SOURCE_TUNING))
        assert [r.duration_s for r in store.observations("app-1")] == [2.0, 3.0]

    def test_append_stamps_default_timestamps(self, tmp_path, space_x86):
        """Records left at the 0.0 default are stamped at append time, so
        run tables stay orderable across restarts; explicit timestamps
        are preserved."""
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        config = config_to_dict(space_x86.default())
        before = time.time()
        store.append_many("app-1", [
            ObservationRecord(config, 1.0, 2.0, SOURCE_TUNING),
            ObservationRecord(config, 1.0, 3.0, SOURCE_TUNING, timestamp=123.5),
        ])
        rows = store.observations("app-1")
        assert rows[0].timestamp >= before
        assert rows[1].timestamp == 123.5

    def test_artifacts_round_trip(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        assert store.load_artifacts("app-1") == (None, None)
        qcsa = QCSAResult(cvs={"q1": 0.5, "q2": 0.1}, csq=("q1",), ciq=("q2",), threshold=0.23, n_samples=10)
        cps = CPSResult(scc={"executor.memory": 0.8, "locality.wait": 0.05}, selected=("executor.memory",), threshold=0.2)
        store.save_artifacts("app-1", qcsa, cps)
        assert store.has_artifacts("app-1")
        loaded_qcsa, loaded_cps = store.load_artifacts("app-1")
        assert loaded_qcsa == qcsa
        assert loaded_cps == cps

    def test_deployment_round_trip(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.register_app("app-1", {})
        assert store.load_deployment("app-1") is None
        state = {"config": {"a": 1}, "tuned_datasizes": [100.0], "recent_ratios": [1.1]}
        store.save_deployment("app-1", state)
        assert store.load_deployment("app-1") == state

    def test_tenant_fsync_blocks_only_its_own_tenant(self, tmp_path, space_x86, monkeypatch):
        store = HistoryStore(tmp_path)
        store.register_app("a", {})
        store.register_app("b", {})
        record = ObservationRecord(config_to_dict(space_x86.default()), 100.0, 42.0, SOURCE_TUNING)
        a_runs = store.app_dir("a") / "runs.jsonl"
        in_fsync, release = threading.Event(), threading.Event()
        real_fsync = os.fsync

        def fsync(fd):
            # Hold tenant a's run-table fsync until the test releases it.
            if not release.is_set() and os.path.samestat(os.fstat(fd), os.stat(a_runs)):
                in_fsync.set()
                release.wait(timeout=30.0)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        first_a = threading.Thread(target=store.append, args=("a", record))
        second_a = threading.Thread(target=store.append, args=("a", record))

        def commit_b():
            store.append("b", record)
            store.save_deployment("b", {"x": 1})

        tenant_b = threading.Thread(target=commit_b)
        try:
            first_a.start()
            assert in_fsync.wait(timeout=10.0)
            tenant_b.start()
            tenant_b.join(timeout=10.0)
            assert not tenant_b.is_alive(), "tenant b queued behind tenant a's fsync"
            assert len(store.observations("b")) == 1
            assert store.load_deployment("b") == {"x": 1}
            second_a.start()
            second_a.join(timeout=0.2)
            assert second_a.is_alive(), "second append to a overtook a's pending fsync"
            assert len(store.observations("a")) == 1
        finally:
            release.set()
            for thread in (first_a, second_a, tenant_b):
                if thread.ident is not None:
                    thread.join(timeout=10.0)
        assert len(store.observations("a")) == 2


class TestJobScheduler:
    def test_per_app_fifo_cross_app_concurrency(self):
        scheduler = JobScheduler(n_workers=4)
        lock = threading.Lock()
        finished: list[tuple[str, int]] = []
        running: set[str] = set()
        peak_overlap = [0]

        def make(app, index):
            def fn():
                with lock:
                    running.add(app)
                    peak_overlap[0] = max(peak_overlap[0], len(running))
                time.sleep(0.05)
                with lock:
                    running.discard(app)
                    finished.append((app, index))
            return fn

        jobs = []
        for index in range(3):
            jobs.append(scheduler.submit("a", make("a", index)))
            jobs.append(scheduler.submit("b", make("b", index)))
        for job in jobs:
            scheduler.wait(job.job_id, timeout=10.0)
        assert [i for app, i in finished if app == "a"] == [0, 1, 2]
        assert [i for app, i in finished if app == "b"] == [0, 1, 2]
        assert peak_overlap[0] == 2  # the two tenants really ran concurrently
        scheduler.shutdown()

    def test_failure_captured_and_app_unblocked(self):
        scheduler = JobScheduler(n_workers=2)

        def boom():
            raise ValueError("deliberate failure")

        failed = scheduler.submit("a", boom)
        after = scheduler.submit("a", lambda: "recovered")
        scheduler.wait(failed.job_id, timeout=10.0)
        scheduler.wait(after.job_id, timeout=10.0)
        assert failed.status == "failed"
        assert "deliberate failure" in failed.error
        assert after.status == "done" and after.result == "recovered"
        scheduler.shutdown()

    def test_oldest_job_first_across_tenants(self):
        """A free worker takes the oldest queued job of any tenant, so
        jobs queued behind a busy worker run in submission order."""
        scheduler = JobScheduler(n_workers=1)
        release = threading.Event()
        order: list[str] = []

        blocker = scheduler.submit("a", lambda: release.wait(5.0))
        wait_until(lambda: blocker.status == "running")
        submitted = ["c0", "b0", "a0", "b1", "c1", "a1"]
        jobs = [
            scheduler.submit(name[0], lambda name=name: order.append(name))
            for name in submitted
        ]
        release.set()
        for job in jobs:
            scheduler.wait(job.job_id, timeout=10.0)
        assert order == submitted
        scheduler.shutdown()

    def test_wait_timeout(self):
        scheduler = JobScheduler(n_workers=1)
        job = scheduler.submit("a", lambda: time.sleep(0.5))
        with pytest.raises(TimeoutError):
            scheduler.wait(job.job_id, timeout=0.01)
        scheduler.wait(job.job_id, timeout=10.0)
        scheduler.shutdown()

    def test_shutdown_fails_queued_jobs(self):
        scheduler = JobScheduler(n_workers=1)
        started = threading.Event()

        def slow():
            started.set()
            time.sleep(0.2)

        running = scheduler.submit("a", slow)
        queued = scheduler.submit("a", lambda: "never runs")
        assert started.wait(5.0)  # ensure the first job is actually running
        scheduler.shutdown(wait=True)
        assert running.status == "done"
        assert queued.status == "failed"
        assert "shut down" in queued.error
        with pytest.raises(RuntimeError):
            scheduler.submit("a", lambda: None)

    def test_unknown_job_raises(self):
        scheduler = JobScheduler(n_workers=1)
        with pytest.raises(KeyError):
            scheduler.get("job-999999")
        scheduler.shutdown()

    def test_job_json_snapshots_are_never_torn(self):
        """to_json snapshots under the scheduler lock: a reader hammering
        a completing job must never observe a half-written transition
        (terminal status with the completion fields still unset)."""
        scheduler = JobScheduler(n_workers=2)
        stop = threading.Event()
        torn: list[dict] = []

        def hammer(job):
            while not stop.is_set():
                view = job.to_json()
                if view["status"] in ("done", "failed"):
                    if view["finished_at"] is None or view["started_at"] is None:
                        torn.append(view)
                    return

        for _ in range(25):
            job = scheduler.submit("a", lambda: sum(range(1000)))
            reader = threading.Thread(target=hammer, args=(job,))
            reader.start()
            scheduler.wait(job.job_id, timeout=10.0)
            reader.join(timeout=10.0)
        stop.set()
        assert torn == []
        scheduler.shutdown()

    def test_finished_jobs_evicted_beyond_cap(self):
        scheduler = JobScheduler(n_workers=1, max_finished=3)
        jobs = [scheduler.submit("a", lambda: "done") for _ in range(5)]
        for job in jobs:
            assert job.wait(timeout=10.0)
        assert jobs[-1].fn is None  # the closure is released on completion
        with pytest.raises(KeyError):
            scheduler.get(jobs[0].job_id)  # oldest finished jobs evicted
        assert scheduler.get(jobs[-1].job_id).status == "done"
        assert len(scheduler.jobs("a")) == 3
        scheduler.shutdown()


class TestTuningRegistry:
    def test_register_validates_inputs(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        with pytest.raises(ValueError):
            registry.register("app", benchmark="ycsb")
        with pytest.raises(ValueError):
            registry.register("app", benchmark="join", tuner={"not_a_knob": 1})
        registry.register("app", benchmark="join", tuner=TINY_TUNER)
        with pytest.raises(ValueError):
            registry.register("app", benchmark="join")

    def test_invalid_surrogate_mode_rejected_before_persisting(self, tmp_path):
        """The retired surrogate_mode key is rejected, whatever its value,
        and before the store write: a rejected registration that left
        its meta behind would crash every later rehydration of the whole
        service."""
        store = HistoryStore(tmp_path / "store")
        registry = TuningRegistry(store)
        for mode in ("turbo", "full", "incremental"):
            with pytest.raises(ValueError, match="surrogate_mode"):
                registry.register("bad", "scan", tuner={"surrogate_mode": mode})
        assert "bad" not in registry
        assert not store.has_app("bad")
        # The store stays rehydratable.
        TuningRegistry(HistoryStore(tmp_path / "store"))

    def test_observe_persists_run_table_and_artifacts(self, tmp_path):
        store = HistoryStore(tmp_path)
        registry = TuningRegistry(store)
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        decision = registry.observe("app", 100.0)
        assert decision.retuned
        assert store.has_artifacts("app")
        tuning_rows = store.observations("app", source=SOURCE_TUNING)
        session = registry.get("app")
        assert len(tuning_rows) == len(session.locat.observation_history)
        # A measured production run lands in the table too.
        registry.observe("app", 100.0, duration_s=123.0)
        production = store.observations("app", source=SOURCE_PRODUCTION)
        assert len(production) == 1
        assert production[0].duration_s == 123.0

    def test_production_rows_name_the_config_that_actually_ran(self, tmp_path):
        """A promoted retune swaps the deployment; every measured duration
        must stay attributed to the configuration it was measured under."""
        store = HistoryStore(tmp_path)
        registry = TuningRegistry(store)
        # Seed 1's drift retune wins its shadow, so the deployment swaps.
        registry.register("app", benchmark="join", seed=1, tuner=TINY_TUNER)
        first = registry.observe("app", 100.0)
        old_config = first.config
        slow = first.result.best_duration_s * 3.0
        decision = registry.observe("app", 100.0, duration_s=slow)
        assert decision.retuned
        assert decision.promotion["phase"] == "shadow_started"
        assert decision.config == old_config  # the shadow does not deploy
        # Drive the gate to its verdict; every run until then is the
        # incumbent's.
        n_shadow = 0
        while decision.promotion["phase"] == "shadow_started" or (
            decision.promotion["phase"] == "shadow"
        ):
            decision = registry.observe("app", 100.0, duration_s=slow)
            n_shadow += 1
        assert decision.promotion["phase"] == "promoted"
        new_config = decision.config
        assert new_config != old_config
        registry.observe("app", 100.0, duration_s=first.result.best_duration_s)
        rows = store.observations("app", source=SOURCE_PRODUCTION)
        assert [config_from_dict(r.config) for r in rows] == (
            [old_config] * (1 + n_shadow) + [new_config]
        )

    def test_duration_before_first_deployment_not_recorded(self, tmp_path):
        store = HistoryStore(tmp_path)
        registry = TuningRegistry(store)
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        registry.observe("app", 100.0, duration_s=500.0)  # nothing deployed yet
        assert store.observations("app", source=SOURCE_PRODUCTION) == []

    def test_restart_resumes_without_bootstrap(self, tmp_path):
        store_dir = tmp_path / "store"
        registry = TuningRegistry(HistoryStore(store_dir))
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        first = registry.observe("app", 100.0)
        evaluations_paid = registry.get("app").locat.objective.n_evaluations
        assert evaluations_paid > 0

        rehydrated = TuningRegistry(HistoryStore(store_dir))
        session = rehydrated.get("app")
        assert session.restored
        assert session.locat.is_bootstrapped
        assert session.locat.objective.n_evaluations == 0  # bootstrap skipped
        assert session.controller.deployed_config == first.config
        assert session.controller.tuned_datasizes == [100.0]

        decision = rehydrated.observe("app", 105.0)
        assert not decision.retuned
        assert decision.config == first.config
        assert session.locat.objective.n_evaluations == 0  # reuse was free

    def test_restart_preserves_drift_window(self, tmp_path):
        store_dir = tmp_path / "store"
        registry = TuningRegistry(HistoryStore(store_dir))
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        first = registry.observe("app", 100.0)
        slow = first.result.best_duration_s * 1.4
        # One mildly slow run: evidence, but under the alarm threshold.
        assert not registry.observe("app", 100.0, duration_s=slow).retuned

        rehydrated = TuningRegistry(HistoryStore(store_dir))
        assert rehydrated.get("app").controller.detector_state()["n"] == 1
        decision = rehydrated.observe("app", 100.0, duration_s=slow)
        assert decision.retuned  # the restored evidence completed the alarm
        assert "Page-Hinkley" in decision.reason

    def test_unknown_app_raises(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        with pytest.raises(KeyError):
            registry.observe("ghost", 100.0)


class TestDriftDetectionService:
    """The drift-aware controller through the service stack."""

    def test_retired_drift_keys_rejected_at_registration(self, tmp_path):
        """The whole controller section is retired: a registration that
        still carries one is refused, not silently stripped."""
        with TuningService(str(tmp_path / "store"), port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            for key, value in (
                ("detector", "ph"), ("drift_factor", 1.3), ("partial_retunes", True),
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client._request(
                        "POST", "/apps",
                        {"app_id": "bad", "benchmark": "scan", "controller": {key: value}},
                    )
                assert excinfo.value.status == 400
                assert "controller" in excinfo.value.message
            assert not service.store.has_app("bad")

    def test_status_exposes_drift_diagnostics(self, tmp_path):
        registry = TuningRegistry(HistoryStore(tmp_path))
        session = registry.register("app", "join", seed=7, tuner=TINY_TUNER)
        status = session.status()
        assert status["drift"]["detector"] == "ph"
        assert not status["drift"]["calibrated"]
        registry.observe("app", 100.0)
        assert session.status()["drift"]["calibrated"]

    def test_detector_state_survives_restart(self, tmp_path):
        """Satellite regression: drift detection must not go silently
        dead across a service restart — the calibration, the detector
        window, and the config identity all round-trip."""
        store_dir = tmp_path / "store"
        registry = TuningRegistry(HistoryStore(store_dir))
        registry.register("app", benchmark="join", seed=7, tuner=TINY_TUNER)
        first = registry.observe("app", 100.0)
        baseline = first.result.best_duration_s
        controller = registry.get("app").controller
        assert controller.log_offset is not None
        registry.observe("app", 100.0, duration_s=baseline * 1.2)  # partial evidence
        partial_state = controller.detector_state()
        assert partial_state["n"] == 1

        rehydrated = TuningRegistry(HistoryStore(store_dir))
        restored = rehydrated.get("app").controller
        assert restored.log_offset == pytest.approx(controller.log_offset)
        assert restored.detector_state() == partial_state
        # The restored detector keeps accumulating from where it left
        # off and the drift path still fires — no silent death.
        retuned = False
        for _ in range(12):
            decision = rehydrated.observe("app", 100.0, duration_s=baseline * 2.0)
            if decision.retuned:
                retuned = True
                break
        assert retuned
        assert decision.trigger == "drift"
        assert decision.result.details["partial"] is True

    def test_drift_quarantine_boundary_survives_restart(self, tmp_path):
        """The stale-history boundary set by a drift retune must restore
        with the calibration that was anchored against it — otherwise a
        restarted post-drift tenant blends pre-drift rows back in at
        full weight and spuriously re-alarms."""
        store_dir = tmp_path / "store"
        store = HistoryStore(store_dir)
        registry = TuningRegistry(store)
        registry.register("app", "join", seed=7, tuner=TINY_TUNER)
        first = registry.observe("app", 100.0)
        baseline = first.result.best_duration_s
        retuned = False
        for _ in range(6):
            if registry.observe("app", 100.0, duration_s=baseline * 2.5).retuned:
                retuned = True
                break
        assert retuned
        boundary = registry.get("app").locat.stale_before
        assert boundary > 0
        assert store.load_deployment("app")["stale_tuning_rows"] == boundary

        rehydrated = TuningRegistry(HistoryStore(store_dir))
        assert rehydrated.get("app").locat.stale_before == boundary

    def test_deployed_json_carries_detector_fields(self, tmp_path):
        store = HistoryStore(tmp_path / "store")
        registry = TuningRegistry(store)
        registry.register("app", "join", seed=7, tuner=TINY_TUNER)
        registry.observe("app", 100.0)
        deployment = store.load_deployment("app")
        assert "detector_state" in deployment
        assert deployment["log_offset"] is not None
        # The retired detectors' name and window are no longer written.
        assert "detector" not in deployment
        assert "recent_ratios" not in deployment

    def test_corrupt_tenant_is_quarantined_not_fatal(self, tmp_path):
        """One tenant's damaged run table must not keep the whole
        multi-tenant service from starting: the tenant is quarantined
        with the descriptive error, the others rehydrate normally."""
        store_dir = tmp_path / "store"
        registry = TuningRegistry(HistoryStore(store_dir))
        registry.register("good", "join", seed=7, tuner=TINY_TUNER)
        registry.register("bad", "scan", seed=7, tuner=TINY_TUNER)
        registry.observe("good", 100.0)
        registry.observe("bad", 100.0)
        path = store_dir / "bad" / "runs.jsonl"
        lines = path.read_text().splitlines()
        lines.insert(1, "GARBAGE NOT JSON")
        path.write_text("\n".join(lines) + "\n")

        rehydrated = TuningRegistry(HistoryStore(store_dir))
        assert rehydrated.get("good").restored
        assert "bad" in rehydrated.quarantined
        assert "corrupt run table" in rehydrated.quarantined["bad"]
        assert "bad" not in rehydrated
        # Distinct from an unknown app: the HTTP layer maps this to 503
        # (repairable server-side damage), not 404 (never registered).
        with pytest.raises(QuarantinedApplicationError, match="quarantined"):
            rehydrated.get("bad")
        with pytest.raises(KeyError):
            rehydrated.get("ghost")

    def test_corrupt_donor_does_not_break_transfer_registration(self, tmp_path):
        """The donor ranking scans every tenant's run table: a corrupt
        donor must be skipped (ineligible), not crash an unrelated
        tenant's warm_start='transfer' registration after its metadata
        was already persisted."""
        store_dir = tmp_path / "store"
        store = HistoryStore(store_dir)
        registry = TuningRegistry(store)
        registry.register("donor", "join", seed=7, tuner=TINY_TUNER)
        registry.observe("donor", 100.0)
        path = store_dir / "donor" / "runs.jsonl"
        lines = path.read_text().splitlines()
        lines.insert(1, "GARBAGE NOT JSON")
        path.write_text("\n".join(lines) + "\n")

        session = registry.register(
            "newbie", "tpcds", seed=7, tuner=TINY_TUNER, warm_start="transfer"
        )
        # Degrades to a cold start instead of poisoning the store.
        assert session.locat.transfer_from is None
        assert store.has_app("newbie")

    def test_truncated_donor_artifacts_do_not_break_transfer_registration(self, tmp_path):
        """Corrupt artifacts.json (not just the run table) must make the
        donor ineligible, not crash another tenant's registration."""
        store_dir = tmp_path / "store"
        store = HistoryStore(store_dir)
        registry = TuningRegistry(store)
        registry.register("donor", "join", seed=7, tuner=TINY_TUNER)
        registry.observe("donor", 100.0)
        (store_dir / "donor" / "artifacts.json").write_text('{"qcsa": {"cv')

        session = registry.register(
            "newbie", "tpcds", seed=7, tuner=TINY_TUNER, warm_start="transfer"
        )
        assert session.locat.transfer_from is None
        assert store.has_app("newbie")

    def test_legacy_deployment_without_detector_state_rehydrates(self, tmp_path):
        """A deployed.json written by the pre-detector service (only
        recent_ratios, no detector state, no calibration) must still
        restore: the first measured run calibrates the model and drift
        detection works from the next one on."""
        store_dir = tmp_path / "store"
        store = HistoryStore(store_dir)
        registry = TuningRegistry(store)
        registry.register("app", "join", seed=7, tuner=TINY_TUNER)
        first = registry.observe("app", 100.0)
        baseline = first.result.best_duration_s
        deployment = store.load_deployment("app")
        for key in ("detector_state", "log_offset"):
            deployment.pop(key)
        deployment["recent_ratios"] = [3.0]  # simulate the old schema
        store.save_deployment("app", deployment)

        rehydrated = TuningRegistry(HistoryStore(store_dir))
        controller = rehydrated.get("app").controller
        assert controller.deployed_config == first.config
        assert controller.log_offset is None
        assert not rehydrated.observe("app", 100.0, duration_s=baseline).retuned
        assert controller.log_offset is not None
        decision = rehydrated.observe("app", 100.0, duration_s=baseline * 3.0)
        assert decision.retuned and decision.trigger == "drift"


#: Retired tenant settings by ``section.key``, each at a value earlier
#: versions accepted: the IICP knobs and the QCSA switch, and the tuner
#: and controller settings no caller set to a non-default value (each
#: at the value that is now its constant, so the tenant runs as before).
RETIRED_SETTINGS = {
    "tuner.explained_variance": 0.95, "tuner.scc_threshold": 0.2,
    "tuner.kernel": "gaussian", "tuner.use_qcsa": False,
    "tuner.ei_threshold": DEFAULT_EI_THRESHOLD, "tuner.use_iicp": True,
    "tuner.use_dagp": True, "tuner.n_workers": 1, "tuner.n_adapt_iterations": 2,
    "tuner.replay_eval": "off", "tuner.replay_capacity": DEFAULT_TRACE_CAPACITY,
    "tuner.n_replays": DEFAULT_N_REPLAYS, "controller.datasize_margin": 0.3,
    "controller.shadow_runs": 6, "controller.ab_alpha": 0.05,
}


def retired(section: str) -> dict:
    return {
        setting.split(".")[1]: value
        for setting, value in RETIRED_SETTINGS.items()
        if setting.startswith(section + ".")
    }


class TestRetiredSettings:
    """Stores written before the detector, surrogate-mode, backend,
    promotion, IICP, QCSA and constant settings were retired still
    rehydrate."""

    def write_parent_format_store(self, store_dir):
        """A tenant whose app.json and deployed.json carry every retired
        setting, in the format earlier versions wrote.  Also returns the
        tenant's status as rehydrated before the rewrite."""
        store = HistoryStore(store_dir)
        registry = TuningRegistry(store)
        registry.register("app", "join", seed=7, tuner=TINY_TUNER)
        first = registry.observe("app", 100.0)
        registry.observe("app", 100.0, duration_s=first.result.best_duration_s * 1.2)
        status = TuningRegistry(HistoryStore(store_dir)).get("app").status()
        meta_path = store_dir / "app" / "app.json"
        meta = json.loads(meta_path.read_text())
        meta["tuner"].update(
            surrogate_mode="full", surrogate_backend="windowed", **retired("tuner")
        )
        meta["controller"] = {
            "detector": "ratio", "drift_factor": 1.3, "drift_patience": 2,
            **retired("controller"),
        }
        meta_path.write_text(json.dumps(meta))
        deployment = store.load_deployment("app")
        deployment.update(
            detector="ratio",
            recent_ratios=[1.2],
            detector_state={"recent_ratios": [1.2]},
        )
        store.save_deployment("app", deployment)
        return first, deployment, status

    def test_parent_format_store_keeps_deployment_and_calibration(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        first, deployment, status = self.write_parent_format_store(store_dir)
        capsys.readouterr()

        rehydrated = TuningRegistry(HistoryStore(store_dir))
        assert rehydrated.quarantined == {}
        session = rehydrated.get("app")
        assert session.restored
        assert session.controller.deployed_config == first.config
        assert session.controller.log_offset == deployment["log_offset"]
        # Retired values fall back to what replaced them.
        assert session.controller.drift_status()["detector"] == "ph"
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if "retired setting" in line
        ]
        assert len(warnings) == 5 + len(RETIRED_SETTINGS)
        for setting in (
            "tuner.surrogate_mode", "tuner.surrogate_backend",
            "controller.detector", "controller.drift_factor",
            "controller.drift_patience", *RETIRED_SETTINGS,
        ):
            assert sum(setting + "=" in line for line in warnings) == 1, setting
        # The ratio window does not translate: the detector starts fresh.
        assert session.controller.detector_state()["n"] == 0
        # Apart from that fresh detector, the tenant reports as before.
        assert {**session.status(), "drift": None} == {**status, "drift": None}
        # Registration keeps rejecting them: tuner keys one by one, the
        # controller section as a whole.
        for key, value in retired("tuner").items():
            with pytest.raises(ValueError, match=f"unknown tuner settings.*{key}"):
                rehydrated.register("new", "join", tuner={key: value})
        with TuningService(str(tmp_path / "fresh"), port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            for key, value in retired("controller").items():
                with pytest.raises(ServiceError, match="controller") as excinfo:
                    client._request(
                        "POST", "/apps",
                        {"app_id": "new", "benchmark": "join", "controller": {key: value}},
                    )
                assert excinfo.value.status == 400

    def test_parent_promotion_and_backend_settings_rehydrate(self, tmp_path, capsys):
        """Stores written while promotion, surrogate backend, refit
        interval and partial retunes were tenant settings rehydrate: an
        immediate-mode tenant keeps its deployed config, an in-flight
        shadow resumes, and the retired keys are dropped with a warning."""
        store_dir = tmp_path / "store"
        store = HistoryStore(store_dir)
        registry = TuningRegistry(store)
        registry.register("plain", "join", seed=7, tuner=TINY_TUNER)
        plain = registry.observe("plain", 100.0)
        registry.register("shadowed", "join", seed=7, tuner=TINY_TUNER)
        base = registry.observe("shadowed", 100.0).result.best_duration_s
        opened = registry.observe("shadowed", 100.0, duration_s=base * 3.0)
        assert opened.promotion["phase"] == "shadow_started"
        registry.observe("shadowed", 100.0, duration_s=base)
        shadowed_incumbent = registry.get("shadowed").controller.deployed_config

        def rewrite_meta(app_id, tuner, controller):
            path = store_dir / app_id / "app.json"
            meta = json.loads(path.read_text())
            meta["tuner"].update(tuner)
            meta["controller"] = controller
            path.write_text(json.dumps(meta))

        rewrite_meta(
            "plain",
            {"surrogate_backend": "exact", "refit_interval": 8},
            {"promotion": "immediate", "partial_retunes": True},
        )
        rewrite_meta("shadowed", {}, {"promotion": "shadow_ab"})
        deployment = store.load_deployment("shadowed")
        deployment["promotion"]["mode"] = "shadow_ab"
        store.save_deployment("shadowed", deployment)
        capsys.readouterr()

        rehydrated = TuningRegistry(HistoryStore(store_dir))
        assert rehydrated.quarantined == {}
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if "retired setting" in line
        ]
        assert len(warnings) == 5
        for app_id, setting in (
            ("plain", "tuner.surrogate_backend"), ("plain", "tuner.refit_interval"),
            ("plain", "controller.promotion"), ("plain", "controller.partial_retunes"),
            ("shadowed", "controller.promotion"),
        ):
            assert sum(
                f"{app_id!r}" in line and setting + "=" in line for line in warnings
            ) == 1, (app_id, setting)

        plain_session = rehydrated.get("plain")
        assert plain_session.controller.deployed_config == plain.config
        assert not plain_session.controller.shadow_active

        shadowed = rehydrated.get("shadowed").controller
        assert shadowed.shadow_active
        assert shadowed._shadow.run_id == opened.promotion["run_id"]
        assert len(shadowed._shadow.pairs) == 1
        assert shadowed.deployed_config == shadowed_incumbent
        resumed = rehydrated.observe("shadowed", 100.0, duration_s=base)
        assert resumed.promotion["run_id"] == opened.promotion["run_id"]
        # The next snapshot no longer carries the mode field.
        assert "mode" not in store.load_deployment("shadowed")["promotion"]

    def test_tenant_restored_at_the_minimum_detects_drift(self, tmp_path):
        """A tenant restored from exactly MIN_RESTORE_OBSERVATIONS tuning
        rows still checks production runs against the model: a
        sustained 2x slowdown raises a drift alarm."""
        store_dir = tmp_path / "store"
        registry = TuningRegistry(HistoryStore(store_dir))
        registry.register("app", "join", seed=7, tuner=TINY_TUNER)
        baseline = registry.observe("app", 100.0).result.best_duration_s
        runs = store_dir / "app" / "runs.jsonl"
        rows = runs.read_text().splitlines()
        runs.write_text("\n".join(rows[:MIN_RESTORE_OBSERVATIONS]) + "\n")

        rehydrated = TuningRegistry(HistoryStore(store_dir))
        session = rehydrated.get("app")
        assert session.restored
        assert session.persisted_observations == MIN_RESTORE_OBSERVATIONS
        assert session.locat.predict_log_duration(
            session.controller.deployed_config, 100.0
        ) is not None
        decision = None
        for _ in range(8):
            decision = rehydrated.observe("app", 100.0, duration_s=baseline * 2.0)
            if decision.retuned:
                break
        assert decision.retuned and decision.trigger == "drift"


class TestServiceIntegration:
    """The acceptance path: concurrent tenants, kill, restart, resume."""

    def test_multi_tenant_restart_resume(self, tmp_path):
        store_dir = str(tmp_path / "store")
        tenants = {"tenant-join": "join", "tenant-scan": "scan"}
        sizes = {"tenant-join": [100.0, 104.0, 108.0], "tenant-scan": [200.0, 206.0, 212.0]}

        service = TuningService(store_dir, port=0, n_workers=4).start()
        client = TuningClient(service.url)
        for app_id, benchmark in tenants.items():
            created = client.register_app(app_id, benchmark, seed=7, tuner=TINY_TUNER)
            assert created["app_id"] == app_id

        errors: list[Exception] = []

        def feed(app_id):
            try:
                for datasize in sizes[app_id]:
                    job = client.observe(app_id, datasize)
                    assert job["status"] == "done"
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=feed, args=(a,)) for a in tenants]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        before = {a["app_id"]: a for a in client.list_apps()}
        configs = {}
        for app_id in tenants:
            assert before[app_id]["bootstrapped"]
            assert before[app_id]["evaluations"] > 0
            configs[app_id] = client.config(app_id)["parameters"]
            history = client.history(app_id)
            assert history["count"] > 0
            assert {row["source"] for row in history["observations"]} <= {SOURCE_TUNING, SOURCE_PRODUCTION}
        service.close()  # kill the service

        restarted = TuningService(store_dir, port=0, n_workers=4).start()
        client = TuningClient(restarted.url)
        for app_id in tenants:
            status = client.app(app_id)
            assert status["bootstrapped"] and status["restored"]
            assert status["evaluations"] == 0  # QCSA/IICP bootstrap NOT re-run
            assert client.config(app_id)["parameters"] == configs[app_id]

        job = client.observe("tenant-join", 102.0)
        assert job["decision"]["retuned"] is False
        assert client.app("tenant-join")["evaluations"] == 0
        restarted.close()

    def test_http_error_paths(self, tmp_path):
        with TuningService(str(tmp_path), port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            assert client.health()["status"] == "ok"
            with pytest.raises(ServiceError) as excinfo:
                client.app("ghost")
            assert excinfo.value.status == 404
            client.register_app("app", "join", tuner=TINY_TUNER)
            with pytest.raises(ServiceError) as excinfo:
                client.register_app("app", "join")
            assert excinfo.value.status == 409
            with pytest.raises(ServiceError) as excinfo:
                client.register_app("other", "ycsb")
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client.config("app")  # nothing deployed yet
            assert excinfo.value.status == 404
            # A bad datasize is rejected up front (the handler normalizes
            # it before anything is queued) — a 400, not a failed job.
            with pytest.raises(ServiceError) as excinfo:
                client.observe("app", -5.0)
            assert excinfo.value.status == 400
            # Non-numeric JSON (null) is a 400 too, not an internal error.
            with pytest.raises(ServiceError) as excinfo:
                client.observe("app", None)
            assert excinfo.value.status == 400
            # So is a run duration the run table must never hold.
            for bad in (math.nan, math.inf, -math.inf, 0.0, -3.0):
                with pytest.raises(ServiceError) as excinfo:
                    client.observe("app", 100.0, duration_s=bad)
                assert excinfo.value.status == 400
                assert "duration_s" in str(excinfo.value)
            assert service.store.observations("app") == []
            # A job that fails while running still surfaces as HTTP 500.
            original_observe = service.registry.observe

            def boom(*args, **kwargs):
                raise RuntimeError("deliberate job failure")

            service.registry.observe = boom
            try:
                with pytest.raises(ServiceError) as excinfo:
                    client.observe("app", 100.0)
                assert excinfo.value.status == 500
            finally:
                service.registry.observe = original_observe
            # ?limit= returns the newest rows; 0 returns none, < 0 is a 400.
            client.observe("app", 100.0)
            rows = client.history("app")["observations"]
            assert len(rows) > 2
            assert client.history("app", limit=2)["observations"] == rows[-2:]
            assert client.history("app", limit=0)["count"] == 0
            assert client.history("app", limit=len(rows) + 5)["count"] == len(rows)
            with pytest.raises(ServiceError) as excinfo:
                client.history("app", limit=-2)
            assert excinfo.value.status == 400

    def test_quarantined_tenant_answers_503_and_is_listed(self, tmp_path):
        """Over HTTP, a quarantined tenant is a repairable server-side
        failure (503 with the reason), never a 404 inviting
        re-registration — and GET /apps names it for operators."""
        store_dir = tmp_path / "store"
        registry = TuningRegistry(HistoryStore(store_dir))
        registry.register("app", "join", seed=7, tuner=TINY_TUNER)
        registry.observe("app", 100.0)
        path = store_dir / "app" / "runs.jsonl"
        lines = path.read_text().splitlines()
        lines.insert(1, "GARBAGE NOT JSON")
        path.write_text("\n".join(lines) + "\n")

        with TuningService(str(store_dir), port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            with pytest.raises(ServiceError) as excinfo:
                client.observe("app", 100.0)
            assert excinfo.value.status == 503
            assert "quarantined" in str(excinfo.value)
            listing = client.list_apps()
            assert listing == []  # not among the healthy sessions
            raw = client._request("GET", "/apps")  # the listing names the damage
            assert "app" in raw["quarantined"]

    def test_corrupt_history_surfaces_as_500_not_400(self, tmp_path):
        """Interior run-table corruption discovered while serving
        GET /apps/<id>/history is a server-side integrity failure: it
        must reach 5xx-based alerting, not masquerade as a bad request."""
        with TuningService(str(tmp_path), port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            client.register_app("app", "join", seed=7, tuner=TINY_TUNER)
            client.observe("app", 100.0)
            path = tmp_path / "app" / "runs.jsonl"
            lines = path.read_text().splitlines()
            lines.insert(1, "GARBAGE NOT JSON")
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ServiceError) as excinfo:
                client.history("app")
            assert excinfo.value.status == 500
            assert "corrupt run table" in str(excinfo.value)

    def test_async_observe_and_jobs_listing(self, tmp_path):
        with TuningService(str(tmp_path), port=0, n_workers=2).start() as service:
            client = TuningClient(service.url)
            client.register_app("app", "scan", seed=3, tuner=TINY_TUNER)
            queued = client.observe("app", 100.0, wait=False)
            assert queued["status"] in ("queued", "running")
            done = client.wait_job(queued["job_id"], timeout=120.0)
            assert done["decision"]["retuned"]
            listed = client.jobs("app")
            assert [j["job_id"] for j in listed] == [queued["job_id"]]


class TestObserveBatch:
    """POST /apps/<id>/observe_batch and the registry batch path."""

    def test_batch_decisions_match_sequential_observes(self, tmp_path):
        """A batch must be bit-identical to the same observes one by one."""
        seq = TuningService(str(tmp_path / "seq"), port=0, n_workers=1).start()
        bat = TuningService(str(tmp_path / "bat"), port=0, n_workers=1).start()
        runs = [(100.0, None), (100.0, 52.0), (100.0, 53.0), (104.0, 51.0)]
        try:
            for service in (seq, bat):
                TuningClient(service.url).register_app("app", "join", seed=7, tuner=TINY_TUNER)
            client_seq = TuningClient(seq.url)
            sequential = [
                client_seq.observe("app", ds, duration_s=dur)["decision"]
                for ds, dur in runs
            ]
            client_bat = TuningClient(bat.url)
            job = client_bat.observe_batch(
                "app",
                [
                    {"datasize_gb": ds, **({"duration_s": dur} if dur is not None else {})}
                    for ds, dur in runs
                ],
            )
            assert job["status"] == "done"
            assert job["decisions"] == sequential
        finally:
            seq.close()
            bat.close()

    def test_batch_lands_in_one_append(self, tmp_path, monkeypatch):
        with TuningService(str(tmp_path), port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            client.register_app("app", "join", seed=7, tuner=TINY_TUNER)
            client.observe("app", 100.0)  # bootstrap

            calls = []
            original = type(service.store).append_many

            def counting(self, app_id, records):
                calls.append(len(records))
                return original(self, app_id, records)

            monkeypatch.setattr(type(service.store), "append_many", counting)
            client.observe_batch(
                "app", [{"datasize_gb": 100.0, "duration_s": 50.0} for _ in range(5)]
            )
            # One store append (one lock acquisition, one fsync) for the
            # whole batch — five production rows in it.
            assert calls == [5]

    def test_batch_validation(self, tmp_path):
        from repro.service.server import MAX_BATCH

        with TuningService(str(tmp_path), port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            client.register_app("app", "join", seed=7, tuner=TINY_TUNER)
            for bad in (
                {"observations": []},
                {"observations": "nope"},
                {},
                {"observations": [{"duration_s": 5.0}]},
                {"observations": [{"datasize_gb": "wat"}]},
                {"observations": [{"datasize_gb": 1.0}, {"datasize_gb": -5.0}]},
                *(
                    {"observations": [{"datasize_gb": 1.0}, {"datasize_gb": 1.0, "duration_s": d}]}
                    for d in (math.nan, math.inf, -math.inf, 0.0, -3.0)
                ),
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client._request("POST", "/apps/app/observe_batch", bad)
                assert excinfo.value.status == 400
            # The loop ends on a bad duration, and its error names the item.
            assert "observations[1] duration_s" in str(excinfo.value)
            assert service.store.observations("app") == []
            too_many = [{"datasize_gb": 1.0}] * (MAX_BATCH + 1)
            with pytest.raises(ServiceError) as excinfo:
                client.observe_batch("app", too_many)
            assert excinfo.value.status == 400
            assert str(MAX_BATCH) in str(excinfo.value)
            with pytest.raises(ServiceError) as excinfo:
                client.observe_batch("ghost", [{"datasize_gb": 1.0}])
            assert excinfo.value.status == 404


class TestBackpressure:
    """max_pending turns queue growth into 429 + Retry-After."""

    def test_scheduler_raises_when_saturated(self):
        from repro.service import SchedulerSaturatedError

        gate = threading.Event()
        scheduler = JobScheduler(n_workers=1, max_pending=1)
        try:
            blocker = scheduler.submit("a", gate.wait, kind="block")
            # A running job no longer counts against the pending bound.
            wait_until(lambda: blocker.status == "running")
            scheduler.submit("a", lambda: None, kind="queued")
            with pytest.raises(SchedulerSaturatedError) as excinfo:
                scheduler.submit("a", lambda: None, kind="rejected")
            assert excinfo.value.pending == 1
            assert excinfo.value.retry_after_s >= 1.0
        finally:
            gate.set()
            scheduler.shutdown(wait=True)

    def test_http_429_with_retry_after(self, tmp_path):
        service = TuningService(
            str(tmp_path), port=0, n_workers=1, max_pending=1
        ).start()
        gate = threading.Event()
        try:
            client = TuningClient(service.url)
            client.register_app("app", "join", seed=7, tuner=TINY_TUNER)
            client.observe("app", 100.0)  # bootstrap while the pool is free
            blocker = service.scheduler.submit("blocker", gate.wait, kind="block")
            wait_until(lambda: blocker.status == "running")
            queued = client.observe("app", 100.0, duration_s=50.0, wait=False)
            assert queued["status"] == "queued"
            with pytest.raises(ServiceError) as excinfo:
                client.observe("app", 100.0, duration_s=50.0, wait=False)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1.0
            assert "retry" in excinfo.value.message
        finally:
            gate.set()
            service.close()


class TestDrainAndShutdown:
    def test_drain_finishes_queued_jobs(self):
        done = []
        scheduler = JobScheduler(n_workers=1)
        for i in range(3):
            scheduler.submit("a", lambda i=i: done.append(i), kind="work")
        assert scheduler.drain(timeout=30.0) is True
        assert done == [0, 1, 2]
        # A drained scheduler refuses new work but stays queryable.
        with pytest.raises(RuntimeError, match="draining"):
            scheduler.submit("a", lambda: None, kind="late")
        scheduler.shutdown(wait=True)

    def test_drain_rejections_surface_as_503(self, tmp_path):
        with TuningService(str(tmp_path), port=0, n_workers=1, admin=True).start() as service:
            client = TuningClient(service.url)
            client.register_app("app", "join", seed=7, tuner=TINY_TUNER)
            assert client._request("POST", "/admin/drain") == {"status": "drained"}
            # The handler answers first and sets the flag after, so the
            # client can read the answer before the flag is up.
            assert service.drained.wait(timeout=5.0)
            with pytest.raises(ServiceError) as excinfo:
                client.observe("app", 100.0)
            assert excinfo.value.status == 503

    def test_admin_drain_is_404_unless_enabled(self, tmp_path):
        with TuningService(str(tmp_path), port=0, n_workers=1).start() as service:
            client = TuningClient(service.url)
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/admin/drain")
            assert excinfo.value.status == 404


class TestRequestLogging:
    def test_silent_by_default_verbose_on_request(self, tmp_path, capfd):
        with TuningService(str(tmp_path / "a"), port=0, n_workers=1).start() as service:
            TuningClient(service.url).health()
        captured = capfd.readouterr()
        assert "GET /healthz" not in captured.err

        with TuningService(
            str(tmp_path / "b"), port=0, n_workers=1, log_requests=True
        ).start() as service:
            TuningClient(service.url).health()
        captured = capfd.readouterr()
        assert "GET /healthz" in captured.err
