"""Closed- and open-loop load drivers.

Closed loop: ``clients`` threads, each with its own keep-alive
:class:`~repro.service.client.TuningClient` connection and its own
tenant subset, issuing requests back to back.  Throughput is whatever
the service sustains; latency excludes client-side think time (there is
none).

Open loop: arrivals are pre-generated from a Poisson process at the
target rate and handed to a dispatcher pool.  Each request's latency is
measured from its *scheduled* arrival, not from when a worker thread
got around to sending it — when the service falls behind, queueing
delay lands in the recorded latency instead of silently disappearing
(the coordinated-omission trap).

Both drivers classify every request: ``ok``, ``rejected`` (HTTP 429
backpressure), or ``error`` (anything else — including an observe that
retuned its tenant: provisioned tenants report steady durations, so a
retune means the run no longer measures the steady-state path).
Rejections are a distinct outcome because a loaded service answering
429-with-Retry-After is behaving correctly; conflating them with
failures would punish backpressure.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.loadgen.workload import OpMix, TenantPlan
from repro.service.client import ServiceError, TuningClient
from repro.stats.sampling import ensure_rng

#: Salt for every load-generation stream; disjoint from
#: REPLAY_SEED_SALT and SHADOW_SEED_SALT so a shared base seed cannot
#: correlate load arrivals with replay or shadow draws.
LOADGEN_SEED_SALT = 0x10AD


@dataclass(frozen=True)
class RequestRecord:
    """One load-driver request and what became of it."""

    op: str
    tenant: str
    #: Seconds since run start at which the request was (scheduled to
    #: be) issued — the latency clock starts here.
    scheduled_at: float
    latency_s: float
    outcome: str  # "ok" | "rejected" | "error"
    status: int | None
    #: Observations carried (1 for observe, batch size for batches,
    #: 0 for reads).
    n_observations: int


def _retuned(job: dict | None) -> bool:
    """Whether a finished observe (or observe_batch) job retuned."""
    job = job or {}
    decisions = job.get("decisions") or [job.get("decision") or {}]
    return any(decision.get("retuned") for decision in decisions)


def _issue(
    client: TuningClient,
    plan: TenantPlan,
    op: str,
    rng: np.random.Generator,
    batch_size: int,
) -> tuple[str, int | None, int]:
    """Run one operation; returns (outcome, http_status, n_observations)."""
    n_observations = 0
    try:
        if op == "observe":
            if batch_size > 1:
                observations = [
                    {
                        "datasize_gb": plan.datasize_gb,
                        "duration_s": plan.sample_duration(rng),
                    }
                    for _ in range(batch_size)
                ]
                job = client.observe_batch(plan.app_id, observations)
                n_observations = batch_size
            else:
                job = client.observe(
                    plan.app_id,
                    datasize_gb=plan.datasize_gb,
                    duration_s=plan.sample_duration(rng),
                )
                n_observations = 1
            if _retuned(job):
                return "error", 200, 0
        elif op == "status":
            client.app(plan.app_id)
        elif op == "config":
            client.config(plan.app_id)
        else:
            raise ValueError(f"unknown op {op!r}")
        return "ok", 200, n_observations
    except ServiceError as exc:
        outcome = "rejected" if exc.status == 429 else "error"
        return outcome, exc.status, 0
    except OSError:
        return "error", None, 0


def run_closed_loop(
    base_url: str,
    tenants: list[TenantPlan],
    mix: OpMix,
    duration_s: float,
    clients: int = 4,
    batch_size: int = 1,
    seed: int = 1,
    clock=time.monotonic,
) -> list[RequestRecord]:
    """Drive back-to-back requests from ``clients`` threads.

    Tenants are pinned ``tenants[i::clients]`` to each client so two
    threads never interleave observes for the same tenant — the
    service's per-app job ordering would serialize them anyway, and the
    pinning keeps the measured concurrency honest.

    ``clock`` is injectable (default ``time.monotonic``) so tests can
    drive the run deadline from a controllable fake clock.
    """
    if not tenants:
        raise ValueError("no tenants to drive")
    clients = min(clients, len(tenants))
    records: list[list[RequestRecord]] = [[] for _ in range(clients)]
    start = clock()
    deadline = start + duration_s

    def client_loop(index: int) -> None:
        rng = ensure_rng((LOADGEN_SEED_SALT, seed, 1, index))
        mine = tenants[index::clients]
        client = TuningClient(base_url)
        try:
            while True:
                now = clock()
                if now >= deadline:
                    break
                op = mix.sample(rng)
                plan = mine[rng.integers(len(mine))]
                outcome, status, n_obs = _issue(client, plan, op, rng, batch_size)
                records[index].append(
                    RequestRecord(
                        op=op,
                        tenant=plan.app_id,
                        scheduled_at=now - start,
                        latency_s=clock() - now,
                        outcome=outcome,
                        status=status,
                        n_observations=n_obs,
                    )
                )
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for bucket in records for record in bucket]


def run_open_loop(
    base_url: str,
    tenants: list[TenantPlan],
    mix: OpMix,
    duration_s: float,
    rate_rps: float,
    batch_size: int = 1,
    seed: int = 1,
    max_dispatchers: int = 32,
    clock=time.monotonic,
    sleep=time.sleep,
) -> list[RequestRecord]:
    """Drive Poisson arrivals at ``rate_rps`` regardless of completion.

    The whole arrival schedule (time, op, tenant) is generated up front
    from ``seed``; dispatcher threads pull arrivals in order, sleep
    until each scheduled instant, and issue the request.  Latency runs
    from the scheduled instant, so dispatcher lag and service queueing
    both count against the service.

    ``clock``/``sleep`` are injectable (defaults ``time.monotonic`` /
    ``time.sleep``) so tests can drive the dispatch schedule from a
    controllable fake clock instead of asserting against wall time.
    """
    if not tenants:
        raise ValueError("no tenants to drive")
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    rng = ensure_rng((LOADGEN_SEED_SALT, seed, 2))
    schedule: list[tuple[float, str, TenantPlan]] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_rps)
        if t >= duration_s:
            break
        schedule.append((t, mix.sample(rng), tenants[rng.integers(len(tenants))]))

    n_dispatchers = min(max_dispatchers, max(len(schedule), 1))
    records: list[list[RequestRecord]] = [[] for _ in range(n_dispatchers)]
    cursor_lock = threading.Lock()
    cursor = 0  # guarded-by: cursor_lock
    start = clock()

    def dispatcher(index: int) -> None:
        nonlocal cursor
        rng_local = ensure_rng((LOADGEN_SEED_SALT, seed, 3, index))
        client = TuningClient(base_url)
        try:
            while True:
                with cursor_lock:
                    if cursor >= len(schedule):
                        break
                    my_index = cursor
                    cursor += 1
                scheduled_at, op, plan = schedule[my_index]
                delay = start + scheduled_at - clock()
                if delay > 0:
                    sleep(delay)
                issued = clock()
                outcome, status, n_obs = _issue(client, plan, op, rng_local, batch_size)
                records[index].append(
                    RequestRecord(
                        op=op,
                        tenant=plan.app_id,
                        scheduled_at=scheduled_at,
                        # From the *scheduled* arrival: queueing in the
                        # dispatcher pool counts, coordinated omission
                        # does not happen.
                        latency_s=(clock() - issued)
                        + max(issued - (start + scheduled_at), 0.0),
                        outcome=outcome,
                        status=status,
                        n_observations=n_obs,
                    )
                )
        finally:
            client.close()

    threads = [
        threading.Thread(target=dispatcher, args=(i,), daemon=True)
        for i in range(n_dispatchers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = [record for bucket in records for record in bucket]
    merged.sort(key=lambda record: record.scheduled_at)
    return merged
