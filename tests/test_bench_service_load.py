"""Tests for the closed loop in ``benchmarks/bench_service_load.py``.

The benchmark script is loaded by path: it is not a package module, but
its closed loop decides what the committed service-load numbers mean.
"""

import csv
import importlib.util
import math
from pathlib import Path

import pytest

from repro.service import ServiceError, TuningClient, TuningService
from repro.service.sharding import stable_slot
from repro.stats.sampling import ensure_rng

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_service_load.py"
_spec = importlib.util.spec_from_file_location("bench_service_load", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

TENANT = bench.Tenant("t", baseline_s=50.0)
#: The configuration columns of a run-table row.
CONFIG = {"workers": 1, "tenants": 1, "clients": 1, "batch_size": 1}


def request(op="observe", started_s=0.0, latency_s=0.01, outcome="ok", n_observations=None):
    if n_observations is None:
        n_observations = 1 if (op == "observe" and outcome == "ok") else 0
    return bench.Request(op, "tenant-0000", started_s, latency_s, outcome, n_observations)


class StubClient:
    """Answers like the service; ``retuned`` marks the last decision of a job."""

    def __init__(self, exc=None, retuned=False):
        self.exc = exc
        self.retuned = retuned
        self.calls = []

    def _decisions(self, n):
        if self.exc:
            raise self.exc
        return [{"retuned": self.retuned and i == n - 1} for i in range(n)]

    def observe(self, app_id, datasize_gb, duration_s):
        self.calls.append(("observe", app_id, duration_s))
        return {"decision": self._decisions(1)[0]}

    def observe_batch(self, app_id, observations):
        self.calls.append(("observe_batch", app_id, [o["duration_s"] for o in observations]))
        return {"decisions": self._decisions(len(observations))}

    def app(self, app_id):
        self.calls.append(("app", app_id))

    def config(self, app_id):
        self.calls.append(("config", app_id))


class TestTenants:
    def test_balanced_tenant_ids_cycle_shards(self):
        ids = bench.balanced_tenant_ids(8)
        assert len(ids) == len(set(ids)) == 8
        assert [stable_slot(app_id) % 4 for app_id in ids] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert bench.balanced_tenant_ids(8) == ids  # deterministic


class TestIssueTaxonomy:
    def test_ok_paths(self):
        client = StubClient()
        rng = ensure_rng(1)
        assert bench.issue(client, TENANT, "observe", rng, 1) == ("ok", 1)
        assert bench.issue(client, TENANT, "observe", rng, 32) == ("ok", 32)
        assert bench.issue(client, TENANT, "status", rng, 1) == ("ok", 0)
        assert bench.issue(client, TENANT, "config", rng, 1) == ("ok", 0)
        assert [call[0] for call in client.calls] == ["observe", "observe_batch", "app", "config"]
        assert len(client.calls[1][2]) == 32

    def test_sample_duration_wobbles_around_baseline(self):
        client = StubClient()
        bench.issue(client, TENANT, "observe", ensure_rng(3), 200)
        durations = client.calls[0][2]
        assert all(49.0 <= d <= 51.0 for d in durations)
        assert len(set(durations)) > 1

    def test_retune_in_the_measured_window_is_an_error(self):
        """Provisioned tenants report steady durations: an observe that
        retuned means the run stopped measuring the steady state."""
        rng = ensure_rng(1)
        retuning = StubClient(retuned=True)
        assert bench.issue(retuning, TENANT, "observe", rng, 1) == ("error", 0)
        assert bench.issue(retuning, TENANT, "observe", rng, 2) == ("error", 0)
        assert bench.issue(StubClient(), TENANT, "observe", rng, 1) == ("ok", 1)

    def test_429_is_rejected_not_error(self):
        client = StubClient(exc=ServiceError(429, "saturated", retry_after=2.0))
        assert bench.issue(client, TENANT, "observe", ensure_rng(1), 1) == ("rejected", 0)

    def test_other_service_errors_and_oserror_are_errors(self):
        for exc in (ServiceError(503, "draining"), ConnectionResetError()):
            client = StubClient(exc=exc)
            assert bench.issue(client, TENANT, "observe", ensure_rng(1), 1) == ("error", 0)


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        assert bench.percentile(values, 50) == 5.0
        assert bench.percentile(values, 95) == 10.0
        assert bench.percentile(values, 100) == 10.0
        assert bench.percentile(values, 0) == 1.0
        assert bench.percentile([42.0], 99) == 42.0

    def test_empty_is_nan(self):
        assert math.isnan(bench.percentile([], 50))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bench.percentile([1.0], 101)
        with pytest.raises(ValueError):
            bench.percentile([1.0], -1)


class TestSummarize:
    def test_warmup_trimming_and_rates(self):
        records = (
            # warm-up noise, must be dropped
            [request(started_s=0.1, latency_s=9.9)]
            # measured window: 8 ok observes, 1 rejected, 1 error
            + [request(started_s=1.0 + i, latency_s=0.1) for i in range(8)]
            + [request(started_s=2.5, outcome="rejected")]
            + [request(op="status", started_s=3.5, outcome="error")]
        )
        row = bench.summarize(records, 11.0, 1.0, **CONFIG)
        assert row["requests"] == 10
        assert row["duration_s"] == 10.0
        assert row["throughput_rps"] == pytest.approx(0.8)
        assert row["observe_throughput_rps"] == pytest.approx(0.8)
        assert row["p50_latency_ms"] == pytest.approx(100.0)
        assert row["failure_rate"] == pytest.approx(0.1)
        assert row["rejected_rate"] == pytest.approx(0.1)

    def test_batches_count_observations_not_requests(self):
        records = [request(started_s=float(i), n_observations=32) for i in range(4)]
        row = bench.summarize(records, 4.0, 0.0, **CONFIG)
        assert row["throughput_rps"] == pytest.approx(1.0)
        assert row["observe_throughput_rps"] == pytest.approx(32.0)

    def test_idle_tail_counts_against_throughput(self):
        row = bench.summarize([request(started_s=0.5)], 10.0, 0.0, **CONFIG)
        assert row["throughput_rps"] == pytest.approx(0.1)

    def test_warmup_must_be_shorter_than_run(self):
        with pytest.raises(ValueError, match="warmup"):
            bench.summarize([], 5.0, 5.0, **CONFIG)

    def test_row_matches_schema(self):
        row = bench.summarize(
            [request(started_s=1.0)], 2.0, 0.0, workers=2, tenants=8, clients=4, batch_size=1
        )
        assert tuple(row) == bench.COLUMNS
        assert (row["mode"], row["mix"]) == ("closed", bench.MIX)
        assert row["workers"] == 2
        assert row["throughput_rps"] == 0.5

    def test_write_and_read_back(self, tmp_path):
        row = bench.summarize([request(started_s=1.0)], 2.0, 0.0, **CONFIG)
        path = bench.write_run_table(tmp_path / "run_table.csv", [row])
        with path.open() as handle:
            read = list(csv.DictReader(handle))
        assert len(read) == 1
        assert tuple(read[0]) == bench.COLUMNS
        assert read[0]["workers"] == "1"
        assert float(read[0]["throughput_rps"]) == 0.5


class TestClosedLoop:
    @pytest.fixture(scope="class")
    def live_service(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("load-store")
        with TuningService(str(store), port=0, n_workers=2).start() as service:
            client = TuningClient(service.url)
            tenants = bench.provision(client, 2, seed=11)
            client.close()
            yield service, tenants

    def test_provisioned_tenants_have_baselines(self, live_service):
        _, tenants = live_service
        assert [tenant.app_id for tenant in tenants] == bench.balanced_tenant_ids(2)
        assert all(tenant.baseline_s > 0 for tenant in tenants)

    def test_closed_loop_drives_real_service(self, live_service):
        service, tenants = live_service
        records = bench.run_closed_loop(service.url, tenants, 1.5, clients=2, seed=5)
        assert records
        assert all(r.outcome == "ok" for r in records)
        assert any(r.op == "observe" for r in records)
        row = bench.summarize(records, 1.5, 0.25, **CONFIG)
        assert row["failure_rate"] == 0.0
        assert row["throughput_rps"] > 0

    def test_closed_loop_pins_tenants_to_clients(self, live_service):
        service, tenants = live_service
        records = bench.run_closed_loop(service.url, tenants, 0.5, clients=2, seed=3)
        # With tenants pinned tenants[i::2], each tenant is driven by
        # exactly one client; both tenants must still appear.
        assert {r.tenant for r in records} == {tenant.app_id for tenant in tenants}

    def test_empty_tenants_rejected(self):
        with pytest.raises(ValueError, match="no tenants"):
            bench.run_closed_loop("http://127.0.0.1:1", [], 0.1, clients=1)
