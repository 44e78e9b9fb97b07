"""Tests for the load-generation harness (:mod:`repro.loadgen`)."""

import csv
import math
import threading

import pytest

from timing_helpers import FakeClock, wait_until

from repro.loadgen import (
    OBSERVE_HEAVY,
    OpMix,
    RUN_TABLE_COLUMNS,
    RequestRecord,
    TenantPlan,
    format_report,
    percentile,
    provision_tenants,
    run_closed_loop,
    run_open_loop,
    run_table_row,
    summarize,
    write_run_table,
)
from repro.loadgen.driver import _issue
from repro.loadgen.workload import LOADGEN_TUNER, balanced_tenant_ids
from repro.service import ServiceError, TuningClient, TuningService
from repro.service.sharding import stable_slot
from repro.stats.sampling import ensure_rng


def record(
    op="observe",
    tenant="tenant-0000",
    scheduled_at=0.0,
    latency_s=0.01,
    outcome="ok",
    status=200,
    n_observations=None,
):
    if n_observations is None:
        n_observations = 1 if (op == "observe" and outcome == "ok") else 0
    return RequestRecord(
        op=op,
        tenant=tenant,
        scheduled_at=scheduled_at,
        latency_s=latency_s,
        outcome=outcome,
        status=status,
        n_observations=n_observations,
    )


class TestOpMix:
    def test_parse_normalizes(self):
        mix = OpMix.parse("observe=9, status=0.5 ,config=0.5")
        weights = dict(mix.weights)
        assert weights["observe"] == pytest.approx(0.9)
        assert weights["status"] == pytest.approx(0.05)
        assert weights["config"] == pytest.approx(0.05)
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_parse_drops_zero_weight_ops(self):
        mix = OpMix.parse("observe=1,status=0")
        assert dict(mix.weights) == {"observe": 1.0}

    def test_parse_rejects_unknown_and_empty(self):
        with pytest.raises(ValueError, match="bad mix component"):
            OpMix.parse("delete=1.0")
        with pytest.raises(ValueError, match="bad mix component"):
            OpMix.parse("observe")
        with pytest.raises(ValueError, match="no positive weight"):
            OpMix.parse("observe=0,status=0")

    def test_str_roundtrips(self):
        mix = OpMix.parse(str(OBSERVE_HEAVY))
        assert mix == OBSERVE_HEAVY

    def test_sample_is_deterministic_and_respects_weights(self):
        rng_a, rng_b = ensure_rng(42), ensure_rng(42)
        draws = [OBSERVE_HEAVY.sample(rng_a) for _ in range(5)]
        assert draws == [OBSERVE_HEAVY.sample(rng_b) for _ in range(5)]
        rng = ensure_rng(7)
        counts = {"observe": 0, "status": 0, "config": 0}
        for _ in range(2000):
            counts[OBSERVE_HEAVY.sample(rng)] += 1
        assert counts["observe"] > 1600
        assert counts["status"] > 0
        assert counts["config"] > 0


class TestTenantPlan:
    def test_sample_duration_wobbles_around_baseline(self):
        plan = TenantPlan("t", "join", 10.0, baseline_duration_s=100.0)
        rng = ensure_rng(3)
        samples = [plan.sample_duration(rng) for _ in range(200)]
        assert all(98.0 <= s <= 102.0 for s in samples)
        assert len(set(samples)) > 1

    def test_balanced_tenant_ids_cycle_shards(self):
        ids = balanced_tenant_ids(8, balance_over=4)
        assert len(ids) == len(set(ids)) == 8
        shards = [stable_slot(app_id) % 4 for app_id in ids]
        assert shards == [0, 1, 2, 3, 0, 1, 2, 3]
        # Deterministic: same call, same ids.
        assert balanced_tenant_ids(8, balance_over=4) == ids


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        assert percentile(values, 50) == 5.0
        assert percentile(values, 95) == 10.0
        assert percentile(values, 100) == 10.0
        assert percentile(values, 0) == 1.0
        assert percentile([42.0], 99) == 42.0

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


class TestSummarize:
    def test_warmup_trimming_and_rates(self):
        records = (
            # warmup noise, must be dropped
            [record(scheduled_at=0.1, latency_s=9.9)]
            # measured window: 8 ok observes, 1 rejected, 1 error
            + [record(scheduled_at=1.0 + i, latency_s=0.1) for i in range(8)]
            + [record(scheduled_at=2.5, outcome="rejected", status=429)]
            + [record(op="status", scheduled_at=3.5, outcome="error", status=503)]
        )
        summary = summarize(records, duration_s=11.0, warmup_s=1.0)
        assert summary.requests == 10
        assert summary.window_s == 10.0
        assert summary.throughput_rps == pytest.approx(0.8)
        assert summary.observe_throughput_rps == pytest.approx(0.8)
        assert summary.p50_latency_ms == pytest.approx(100.0)
        assert summary.failure_rate == pytest.approx(0.1)
        assert summary.rejected_rate == pytest.approx(0.1)
        assert summary.by_op == {"observe": 9, "status": 1}

    def test_batches_count_observations_not_requests(self):
        records = [record(scheduled_at=float(i), n_observations=32) for i in range(4)]
        summary = summarize(records, duration_s=4.0)
        assert summary.throughput_rps == pytest.approx(1.0)
        assert summary.observe_throughput_rps == pytest.approx(32.0)

    def test_idle_tail_counts_against_throughput(self):
        records = [record(scheduled_at=0.5)]
        summary = summarize(records, duration_s=10.0)
        assert summary.throughput_rps == pytest.approx(0.1)

    def test_warmup_must_be_shorter_than_run(self):
        with pytest.raises(ValueError, match="warmup"):
            summarize([], duration_s=5.0, warmup_s=5.0)


class TestRunTable:
    def _summary(self):
        return summarize([record(scheduled_at=1.0)], duration_s=2.0)

    def test_row_matches_schema(self):
        row = run_table_row(
            self._summary(),
            mode="closed",
            workers=2,
            tenants=8,
            clients=4,
            batch_size=1,
            mix=str(OBSERVE_HEAVY),
        )
        assert tuple(row) == RUN_TABLE_COLUMNS
        assert row["workers"] == 2
        assert row["throughput_rps"] == 0.5

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError, match="unknown run-table columns"):
            run_table_row(self._summary(), bogus=1)

    def test_write_and_read_back(self, tmp_path):
        row = run_table_row(self._summary(), mode="closed", workers=1)
        path = write_run_table(tmp_path / "run_table.csv", [row])
        with path.open() as handle:
            read = list(csv.DictReader(handle))
        assert len(read) == 1
        assert tuple(read[0]) == RUN_TABLE_COLUMNS
        assert read[0]["workers"] == "1"
        assert float(read[0]["throughput_rps"]) == 0.5

    def test_format_report_renders_all_rows(self):
        rows = [
            run_table_row(self._summary(), mode="closed", workers=w) for w in (1, 4)
        ]
        report = format_report(rows)
        lines = report.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "observe_tput_rps" in lines[0]


class TestIssueTaxonomy:
    class _StubClient:
        def __init__(self, exc=None):
            self.exc = exc
            self.calls = []

        def observe(self, app_id, datasize_gb, duration_s):
            self.calls.append(("observe", app_id))
            if self.exc:
                raise self.exc

        def observe_batch(self, app_id, observations):
            self.calls.append(("observe_batch", app_id, len(observations)))
            if self.exc:
                raise self.exc

        def app(self, app_id):
            self.calls.append(("app", app_id))

        def config(self, app_id):
            self.calls.append(("config", app_id))

    def _plan(self):
        return TenantPlan("t", "join", 10.0, baseline_duration_s=50.0)

    def test_ok_paths(self):
        client = self._StubClient()
        rng = ensure_rng(1)
        assert _issue(client, self._plan(), "observe", rng, 1) == ("ok", 200, 1)
        assert _issue(client, self._plan(), "observe", rng, 32) == ("ok", 200, 32)
        assert _issue(client, self._plan(), "status", rng, 1) == ("ok", 200, 0)
        assert _issue(client, self._plan(), "config", rng, 1) == ("ok", 200, 0)
        assert client.calls[1] == ("observe_batch", "t", 32)

    def test_retune_in_the_measured_window_is_an_error(self):
        """Provisioned tenants report steady durations: an observe that
        retuned means the run stopped measuring the steady state."""

        class RetuningClient(self._StubClient):
            def observe(self, app_id, datasize_gb, duration_s):
                super().observe(app_id, datasize_gb, duration_s)
                return {"decision": {"retuned": True}}

            def observe_batch(self, app_id, observations):
                super().observe_batch(app_id, observations)
                return {"decisions": [{"retuned": False}, {"retuned": True}]}

        client = RetuningClient()
        rng = ensure_rng(1)
        assert _issue(client, self._plan(), "observe", rng, 1) == ("error", 200, 0)
        assert _issue(client, self._plan(), "observe", rng, 2) == ("error", 200, 0)
        steady = self._StubClient()
        assert _issue(steady, self._plan(), "observe", rng, 1) == ("ok", 200, 1)

    def test_429_is_rejected_not_error(self):
        client = self._StubClient(exc=ServiceError(429, "saturated", retry_after=2.0))
        outcome = _issue(client, self._plan(), "observe", ensure_rng(1), 1)
        assert outcome == ("rejected", 429, 0)

    def test_other_service_errors_and_oserror_are_errors(self):
        client = self._StubClient(exc=ServiceError(503, "draining"))
        assert _issue(client, self._plan(), "observe", ensure_rng(1), 1) == (
            "error",
            503,
            0,
        )
        client = self._StubClient(exc=ConnectionResetError())
        assert _issue(client, self._plan(), "observe", ensure_rng(1), 1) == (
            "error",
            None,
            0,
        )


@pytest.fixture(scope="module")
def live_service(tmp_path_factory):
    store = tmp_path_factory.mktemp("loadgen-store")
    with TuningService(str(store), port=0, n_workers=2).start() as service:
        client = TuningClient(service.url)
        plans = provision_tenants(
            client, 2, seed=11, tuner=dict(LOADGEN_TUNER), concurrency=2
        )
        yield service, plans
        client.close()


class TestDrivers:
    def test_provisioned_tenants_have_baselines(self, live_service):
        _, plans = live_service
        assert [plan.app_id for plan in plans] == balanced_tenant_ids(2)
        assert all(plan.baseline_duration_s > 0 for plan in plans)

    def test_closed_loop_drives_real_service(self, live_service):
        service, plans = live_service
        records = run_closed_loop(
            service.url,
            plans,
            OBSERVE_HEAVY,
            duration_s=1.5,
            clients=2,
            seed=5,
        )
        assert records
        assert all(r.outcome == "ok" for r in records)
        assert any(r.op == "observe" for r in records)
        summary = summarize(records, duration_s=1.5, warmup_s=0.25)
        assert summary.failure_rate == 0.0
        assert summary.throughput_rps > 0

    def test_closed_loop_pins_tenants_to_clients(self, live_service):
        service, plans = live_service
        records = run_closed_loop(
            service.url, plans, OpMix.parse("status=1"), duration_s=0.5, clients=2
        )
        # With tenants pinned tenants[i::2], each tenant is driven by
        # exactly one client; both tenants must still appear.
        assert {r.tenant for r in records} == {plan.app_id for plan in plans}

    def test_open_loop_schedule_is_deterministic(self, live_service):
        service, plans = live_service
        kwargs = dict(
            tenants=plans,
            mix=OpMix.parse("status=0.5,config=0.5"),
            duration_s=1.0,
            rate_rps=40.0,
            seed=9,
        )
        first = run_open_loop(service.url, **kwargs)
        second = run_open_loop(service.url, **kwargs)
        assert [
            (r.scheduled_at, r.op, r.tenant) for r in first
        ] == [(r.scheduled_at, r.op, r.tenant) for r in second]
        assert first == sorted(first, key=lambda r: r.scheduled_at)
        assert all(r.outcome == "ok" for r in first)
        # ~40 rps for 1 s, Poisson: wide but non-trivial bounds.
        assert 10 <= len(first) <= 80

    def test_open_loop_latency_includes_dispatch_lag(self, live_service):
        """Dispatch lag accounting, exactly — on a fake clock.

        The driver runs against a :class:`FakeClock` in a background
        thread; the single dispatcher blocks in ``sleep`` until the
        test jumps the clock far past every scheduled arrival.  The
        clock then stands still while the backlog drains, so each
        record's latency must equal its lag ``JUMP - scheduled_at`` to
        the float — no wall-time slack, no coordinated omission.
        """
        service, plans = live_service
        fake = FakeClock()
        results: list = []
        JUMP = 100.0

        def drive() -> None:
            results.extend(
                run_open_loop(
                    service.url,
                    plans,
                    OpMix.parse("status=1"),
                    duration_s=1.0,
                    rate_rps=20.0,
                    seed=3,
                    max_dispatchers=1,
                    clock=fake.monotonic,
                    sleep=fake.sleep,
                )
            )

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        wait_until(
            lambda: fake.sleepers == 1,
            message="dispatcher never blocked on the fake clock",
        )
        fake.advance(JUMP)
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "open-loop driver did not finish"
        assert results
        assert all(r.outcome == "ok" for r in results)
        for r in results:
            assert r.latency_s == pytest.approx(JUMP - r.scheduled_at)

    def test_empty_tenants_rejected(self):
        with pytest.raises(ValueError, match="no tenants"):
            run_closed_loop("http://127.0.0.1:1", [], OBSERVE_HEAVY, duration_s=0.1)
        with pytest.raises(ValueError, match="no tenants"):
            run_open_loop("http://127.0.0.1:1", [], OBSERVE_HEAVY, 0.1, rate_rps=1.0)

    def test_open_loop_rejects_bad_rate(self, live_service):
        service, plans = live_service
        with pytest.raises(ValueError, match="rate_rps"):
            run_open_loop(service.url, plans, OBSERVE_HEAVY, 0.1, rate_rps=0.0)
