"""Sharded multi-worker service: routing, supervision, compatibility.

Covers the sharding subsystem's contracts: the slot hash never moves an
application between restarts or worker counts, a crashed worker comes
back serving the same state it crashed with, cross-tenant reads merge
across shards, shutdown drains in-flight jobs to disk, the keep-alive
client survives a server restart, and — pinned byte for byte — one
sharded worker is indistinguishable from the classic single-process
service.
"""

import json
import socket
import threading
import urllib.request

import pytest

from repro.service import (
    HistoryStore,
    ServiceError,
    ShardedTuningService,
    TuningClient,
    TuningService,
)
from repro.service import server as server_module
from repro.service.sharding import frontend as frontend_module
from repro.service.sharding import (
    N_SLOTS,
    ShardMap,
    apply_reshard,
    plan_reshard,
    stable_slot,
)

#: Small-but-real tuner so bootstraps cost well under a second.
TINY_TUNER = {
    "n_qcsa": 8,
    "n_iicp": 6,
    "max_iterations": 4,
    "min_iterations": 2,
    "n_mcmc": 0,
    "use_polish": False,
}

#: Response keys that legitimately differ between two service instances
#: (wall-clock stamps) — everything else must match byte for byte.
VOLATILE_KEYS = frozenset(
    {"timestamp", "submitted_at", "started_at", "finished_at", "saved_at", "updated_at"}
)


def strip_volatile(payload):
    """Recursively drop wall-clock fields from a JSON payload."""
    if isinstance(payload, dict):
        return {
            key: strip_volatile(value)
            for key, value in payload.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(payload, list):
        return [strip_volatile(item) for item in payload]
    return payload


# ----------------------------------------------------------------------
# Shard map
# ----------------------------------------------------------------------
class TestShardMap:
    def test_stable_slot_pinned(self):
        # Pinned values: any change here silently remaps every deployed
        # store, so the hash must never drift.
        assert stable_slot("alpha") == 30
        assert stable_slot("beta") == 41
        assert stable_slot("tpcds-prod") == 31

    def test_slot_independent_of_process_and_instance(self):
        ids = [f"app-{i}" for i in range(50)]
        first = [stable_slot(app_id) for app_id in ids]
        assert first == [stable_slot(app_id) for app_id in ids]
        assert all(0 <= slot < N_SLOTS for slot in first)

    def test_same_app_same_shard_across_map_instances(self):
        for workers in (1, 2, 4, 8):
            a, b = ShardMap(workers), ShardMap(workers)
            for app_id in ("alpha", "beta", "gamma", "tenant-0042"):
                assert a.shard_of(app_id) == b.shard_of(app_id)
                assert 0 <= a.shard_of(app_id) < workers

    def test_single_worker_owns_everything(self):
        shard_map = ShardMap(1)
        assert all(shard_map.shard_of(f"a{i}") == 0 for i in range(20))

    def test_assignments_cover_ring_evenly(self):
        shard_map = ShardMap(4)
        table = shard_map.assignments()
        assert sorted(slot for slots in table.values() for slot in slots) == list(
            range(N_SLOTS)
        )
        assert all(len(slots) == N_SLOTS // 4 for slots in table.values())

    def test_shard_dir_layout(self, tmp_path):
        shard_map = ShardMap(2)
        assert shard_map.shard_dir(tmp_path, 1).name == "shard-01"
        with pytest.raises(ValueError):
            shard_map.shard_dir(tmp_path, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(0)
        with pytest.raises(ValueError):
            ShardMap(4, n_slots=2)


class TestReshard:
    def test_plan_and_apply_moves_apps_to_new_owners(self, tmp_path):
        old_map = ShardMap(2)
        apps = [f"app-{i}" for i in range(8)]
        for app_id in apps:
            app_dir = old_map.shard_dir(tmp_path, old_map.shard_of(app_id)) / app_id
            app_dir.mkdir(parents=True)
            (app_dir / "runs.jsonl").write_text(f'{{"app": "{app_id}"}}\n')

        plan = plan_reshard(tmp_path, old_workers=2, new_workers=4)
        moved = apply_reshard(plan)
        assert moved == len(plan.moves)

        new_map = ShardMap(4)
        for app_id in apps:
            expected = new_map.shard_dir(tmp_path, new_map.shard_of(app_id)) / app_id
            assert expected.is_dir(), f"{app_id} not at its new owner"
            assert (expected / "runs.jsonl").read_text() == f'{{"app": "{app_id}"}}\n'

    def test_apply_refuses_to_clobber(self, tmp_path):
        old_map = ShardMap(1)
        # Find an app whose owner changes going 1 -> 2 workers.
        app_id = next(a for a in (f"x{i}" for i in range(99)) if ShardMap(2).shard_of(a) == 1)
        (old_map.shard_dir(tmp_path, 0) / app_id).mkdir(parents=True)
        (ShardMap(2).shard_dir(tmp_path, 1) / app_id).mkdir(parents=True)
        plan = plan_reshard(tmp_path, old_workers=1, new_workers=2)
        with pytest.raises(FileExistsError):
            apply_reshard(plan)

    def test_noop_when_worker_count_unchanged(self, tmp_path):
        shard_map = ShardMap(2)
        (shard_map.shard_dir(tmp_path, 0) / "anything").mkdir(parents=True)
        assert plan_reshard(tmp_path, 2, 2).moves == []


# ----------------------------------------------------------------------
# The sharded stack end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded():
    """One two-worker sharded service shared by the read-mostly tests."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="locat-shard-") as store_dir:
        with ShardedTuningService(store_dir, port=0, workers=2).start() as service:
            client = TuningClient(service.url)
            for i, app_id in enumerate(("alpha", "beta", "gamma")):
                client.register_app(app_id, benchmark="join", seed=3 + i, tuner=TINY_TUNER)
            yield service, client
            client.close()


class TestShardedService:
    def test_routes_by_app_across_shards(self, sharded):
        service, client = sharded
        shards = {service.shard_map.shard_of(a) for a in ("alpha", "beta", "gamma")}
        assert shards == {0, 1}, "fixture apps should span both shards"
        job = client.observe("alpha", datasize_gb=10.0)
        assert job["status"] == "done"
        assert job["decision"]["retuned"]
        # The job id names the owning shard and routes back to it.
        expected_prefix = f"w{service.shard_map.shard_of('alpha')}-"
        assert job["job_id"].startswith(expected_prefix)
        assert client.job(job["job_id"])["status"] == "done"

    def test_apps_fan_out_merge(self, sharded):
        _, client = sharded
        apps = client.list_apps()
        assert [a["app_id"] for a in apps] == ["alpha", "beta", "gamma"]

    def test_healthz_sums_apps(self, sharded):
        _, client = sharded
        assert client.health() == {"status": "ok", "apps": 3}

    def test_workers_endpoint_reports_supervision(self, sharded):
        service, _ = sharded
        payload = json.loads(urllib.request.urlopen(service.url + "/workers").read())
        assert [w["shard"] for w in payload["workers"]] == [0, 1]
        assert all(w["alive"] for w in payload["workers"])

    def test_observe_batch_through_frontend(self, sharded):
        _, client = sharded
        client.observe("beta", datasize_gb=10.0)  # bootstrap
        job = client.observe_batch(
            "beta",
            [{"datasize_gb": 10.0, "duration_s": 60.0}, {"datasize_gb": 10.0}],
        )
        assert job["status"] == "done"
        assert len(job["decisions"]) == 2

    def test_unknown_app_404_matches_unsharded_wording(self, sharded):
        _, client = sharded
        with pytest.raises(ServiceError) as excinfo:
            client.app("nope")
        assert excinfo.value.status == 404
        assert "nope" in str(excinfo.value)


class TestCrashRecovery:
    def test_crashed_worker_restarts_with_identical_state(self, tmp_path):
        with ShardedTuningService(str(tmp_path), port=0, workers=2).start() as service:
            client = TuningClient(service.url)
            client.register_app("crashy", benchmark="join", seed=7, tuner=TINY_TUNER)
            client.observe("crashy", datasize_gb=10.0)
            client.observe("crashy", datasize_gb=10.0, duration_s=55.0)
            before_status = client.app("crashy")
            before_config = client.config("crashy")

            shard = service.shard_map.shard_of("crashy")
            service.supervisor.handles[shard].kill()
            assert not service.supervisor.handles[shard].is_alive()

            after_status = client.app("crashy")
            after_config = client.config("crashy")
            client.close()

            assert service.supervisor.restarts == 1
            assert service.supervisor.handles[shard].is_alive()
            # The deployed configuration survives the crash bit for bit.
            assert strip_volatile(after_config) == strip_volatile(before_config)
            # Identity, deployment, and persisted-history status match;
            # in-memory session counters legitimately reset on restart.
            for key in (
                "app_id",
                "benchmark",
                "cluster",
                "bootstrapped",
                "deployed",
                "warm_start",
                "tuned_datasizes",
                "observations_persisted",
            ):
                assert after_status[key] == before_status[key], key
            assert after_status["restored"] is True


class TestDrain:
    def test_close_completes_inflight_jobs(self, tmp_path):
        service = ShardedTuningService(str(tmp_path), port=0, workers=2).start()
        client = TuningClient(service.url)
        client.register_app(
            "drainy",
            benchmark="join",
            seed=11,
            tuner=TINY_TUNER,
        )
        # Bootstrap synchronously.  The durations reported below are the
        # deployment's own validated duration: they count as production
        # rows and never trigger a retune mid-drain.
        bootstrap = client.observe("drainy", datasize_gb=10.0)
        steady_s = bootstrap["decision"]["tuning"]["best_duration_s"]
        shard_dir = str(
            service.shard_map.shard_dir(tmp_path, service.shard_map.shard_of("drainy"))
        )
        persisted = len(HistoryStore(shard_dir).observations("drainy"))
        # Queue async observes and shut down immediately: drain must
        # land them all before the workers exit.
        for _ in range(3):
            job = client.observe(
                "drainy", datasize_gb=10.0, duration_s=steady_s, wait=False
            )
            assert job["status"] in ("queued", "running")
        client.close()
        service.close()

        after = HistoryStore(shard_dir).observations("drainy")
        assert len(after) == persisted + 3
        assert sum(1 for r in after if r.source == "production") == 3


class TestSingleWorkerCompatibility:
    def test_workers_1_is_bit_identical_to_plain_service(self, tmp_path):
        """The pinned compatibility contract from the issue."""
        plain = TuningService(str(tmp_path / "plain"), port=0, n_workers=2).start()
        sharded = ShardedTuningService(str(tmp_path / "sharded"), port=0, workers=1).start()
        try:
            responses = []
            for url in (plain.url, sharded.url):
                client = TuningClient(url)
                log = [
                    client.register_app("compat", benchmark="join", seed=9, tuner=TINY_TUNER),
                    client.observe("compat", datasize_gb=10.0),
                    client.observe("compat", datasize_gb=10.0, duration_s=48.0),
                    client.observe_batch("compat", [{"datasize_gb": 10.0, "duration_s": 48.5}]),
                    client.app("compat"),
                    client.config("compat"),
                    client.history("compat"),
                    client.jobs(),
                    client.health(),
                ]
                # Error payloads must match too (unknown routes proxy).
                try:
                    client.app("missing")
                except ServiceError as exc:
                    log.append({"status": exc.status, "message": exc.message})
                client.close()
                responses.append(strip_volatile(log))
            assert responses[0] == responses[1]
        finally:
            plain.close()
            sharded.close()


class _FlakyHTTPServer(threading.Thread):
    """Answers the first request per connection, then may hang up.

    Connection 1: serves one response, then closes the keep-alive
    socket without answering the next request — the stale-socket
    scenario the client must retry through.  Later connections answer
    every request.
    """

    BODY = b'{"status": "ok", "apps": 0}'

    def __init__(self):
        super().__init__(daemon=True)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.connections = 0
        self.start()

    def _read_request(self, conn) -> bytes:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(4096)
            if not chunk:
                return b""
            data += chunk
        return data

    def run(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            first_connection = self.connections == 1
            with conn:
                while self._read_request(conn):
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(self.BODY), self.BODY)
                    )
                    if first_connection:
                        # Wait for the next request, then hang up on it.
                        self._read_request(conn)
                        break

    def close(self) -> None:
        self._listener.close()


class TestKeepAliveClient:
    def test_connection_reused_across_requests(self, tmp_path):
        with TuningService(str(tmp_path), port=0, n_workers=1).start() as service:
            with TuningClient(service.url) as client:
                assert client.health()["status"] == "ok"
                first_conn = client._local.conn
                assert client.health()["status"] == "ok"
                assert client._local.conn is first_conn, "keep-alive not reused"

    def test_retries_once_on_stale_socket(self):
        server = _FlakyHTTPServer()
        try:
            with TuningClient(f"http://127.0.0.1:{server.port}") as client:
                assert client.health()["status"] == "ok"
                first_conn = client._local.conn
                # The server hangs up on this one mid-connection; the
                # client must reconnect and resend transparently.
                assert client.health()["status"] == "ok"
                assert client._local.conn is not first_conn
                assert server.connections == 2
        finally:
            server.close()


def _record_nodelay(monkeypatch, handler_class) -> list[int]:
    """Record ``TCP_NODELAY`` of every socket ``handler_class`` accepts."""
    recorded: list[int] = []
    base_setup = handler_class.setup

    def setup(handler):
        base_setup(handler)
        recorded.append(
            handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )

    monkeypatch.setattr(handler_class, "setup", setup)
    return recorded


class TestNagleDisabled:
    """Both HTTP hops reply with a headers write and a body write; with
    Nagle on, the body waits for the client's delayed ACK (~40 ms)."""

    def test_service_sockets_are_nodelay(self, tmp_path, monkeypatch):
        recorded = _record_nodelay(monkeypatch, server_module._Handler)
        with TuningService(str(tmp_path), port=0, n_workers=1).start() as service:
            with TuningClient(service.url) as client:
                assert client.health()["status"] == "ok"
        assert recorded and all(recorded)

    def test_frontend_sockets_are_nodelay(self, sharded, monkeypatch):
        service, _ = sharded
        recorded = _record_nodelay(monkeypatch, frontend_module._FrontendHandler)
        with TuningClient(service.url) as client:
            assert client.health()["status"] == "ok"
        assert recorded and all(recorded)


class TestShardedBatchEquivalence:
    """observe_batch through the sharded frontend is bit-identical to
    the same observations sent one request at a time — including the
    shadow-promotion phases a gated tenant threads through them."""

    RUNS = [
        (10.0, None),        # bootstrap tune
        (10.0, 1.0e6),       # far-slow run -> drift alarm -> retune -> shadow opens
        (10.0, 1.0e6),       # CRN shadow pairs until the gate rules
        (10.0, 55.0),
        (10.0, 55.0),
        (10.0, 55.0),
    ]
    CONTROLLER = {"shadow_runs": 2}

    def _register(self, client):
        # seed=5 pinned: its drift retune yields a *different* winner,
        # so the trajectory walks the full shadow lifecycle instead of
        # reconfirming the incumbent.
        client.register_app(
            "gated", benchmark="join", seed=5, tuner=TINY_TUNER,
            controller=self.CONTROLLER,
        )

    def test_batch_matches_sequential_observes(self, tmp_path):
        seq = ShardedTuningService(str(tmp_path / "seq"), port=0, workers=2).start()
        bat = ShardedTuningService(str(tmp_path / "bat"), port=0, workers=2).start()
        try:
            client_seq = TuningClient(seq.url)
            client_bat = TuningClient(bat.url)
            self._register(client_seq)
            self._register(client_bat)
            sequential = [
                client_seq.observe("gated", ds, duration_s=dur)["decision"]
                for ds, dur in self.RUNS
            ]
            job = client_bat.observe_batch(
                "gated",
                [
                    {"datasize_gb": ds, **({"duration_s": dur} if dur is not None else {})}
                    for ds, dur in self.RUNS
                ],
            )
            assert job["status"] == "done"
            assert job["decisions"] == sequential
            # The trajectory must actually exercise the gate, or the
            # equivalence is vacuous for the promotion path.
            phases = [
                d.get("promotion", {}).get("phase")
                for d in sequential
                if d.get("promotion")
            ]
            assert "shadow_started" in phases
            assert {"promoted", "rejected"} & set(phases)
        finally:
            seq.close()
            bat.close()


class TestShardedBackpressure:
    """max_pending saturation inside a worker surfaces through the
    proxy as 429 + Retry-After, byte-for-byte like the plain service."""

    def test_429_retry_after_through_frontend(self, tmp_path):
        from timing_helpers import wait_until
        from repro.service.server import TuningService as _TS

        gate = str(tmp_path / "gate.lock")

        class GatedStore(HistoryStore):
            """Appends spin while the gate file exists (parent-controlled
            across the fork boundary)."""

            def append_many(self, app_id, records):
                import os as _os
                import time as _time
                while _os.path.exists(gate):
                    _time.sleep(0.01)
                super().append_many(app_id, records)

        def factory(spec):
            return _TS(
                spec.store_dir, host="127.0.0.1", port=0,
                n_workers=1, eval_workers=1, max_pending=1, admin=True,
                job_id_prefix=spec.job_id_prefix, store_factory=GatedStore,
            )

        service = ShardedTuningService(
            str(tmp_path / "store"), port=0, workers=1, service_factory=factory
        ).start()
        try:
            client = TuningClient(service.url)
            client.register_app("app", benchmark="join", seed=7, tuner=TINY_TUNER)
            client.observe("app", 100.0)  # bootstrap while the pool is free
            open(gate, "w").close()
            blocked = client.observe("app", 100.0, duration_s=50.0, wait=False)
            # Once the gated job is *running* it no longer counts against
            # the pending bound; the next submission fills the queue.
            wait_until(
                lambda: client.job(blocked["job_id"])["status"] == "running",
                message="gated observe never started running",
            )
            queued = client.observe("app", 100.0, duration_s=51.0, wait=False)
            assert queued["status"] == "queued"
            with pytest.raises(ServiceError) as excinfo:
                client.observe("app", 100.0, duration_s=52.0, wait=False)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1.0
            assert "retry" in excinfo.value.message
        finally:
            import os as _os
            _os.remove(gate)
            service.close()

    def test_batch_past_pending_bound_gets_429(self, tmp_path):
        """A saturated worker rejects observe_batch the same way."""
        from timing_helpers import wait_until
        from repro.service.server import TuningService as _TS

        gate = str(tmp_path / "gate.lock")

        class GatedStore(HistoryStore):
            def append_many(self, app_id, records):
                import os as _os
                import time as _time
                while _os.path.exists(gate):
                    _time.sleep(0.01)
                super().append_many(app_id, records)

        def factory(spec):
            return _TS(
                spec.store_dir, host="127.0.0.1", port=0,
                n_workers=1, eval_workers=1, max_pending=1, admin=True,
                job_id_prefix=spec.job_id_prefix, store_factory=GatedStore,
            )

        service = ShardedTuningService(
            str(tmp_path / "store"), port=0, workers=1, service_factory=factory
        ).start()
        try:
            client = TuningClient(service.url)
            client.register_app("app", benchmark="join", seed=7, tuner=TINY_TUNER)
            client.observe("app", 100.0)
            open(gate, "w").close()
            blocked = client.observe("app", 100.0, duration_s=50.0, wait=False)
            wait_until(
                lambda: client.job(blocked["job_id"])["status"] == "running",
                message="gated observe never started running",
            )
            queued = client.observe("app", 100.0, duration_s=51.0, wait=False)
            assert queued["status"] == "queued"
            with pytest.raises(ServiceError) as excinfo:
                client.observe_batch(
                    "app", [{"datasize_gb": 100.0, "duration_s": 52.0}]
                )
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
        finally:
            import os as _os
            _os.remove(gate)
            service.close()
