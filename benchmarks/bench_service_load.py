"""Service load: observe-throughput scaling across worker processes.

The ROADMAP's scale item asks the service front end to outgrow one
process.  This benchmark sweeps tenant count × worker count with the
closed loop below on a fixed observe-heavy mix and records the repo's
standing service-perf curve: sustained observe throughput, latency
percentiles, and the failure taxonomy per configuration
(``BENCH_service_load.json``; the smoke run writes its rows as
``run_table.csv``).

The loop: tenants are registered with a small tuner and their
bootstraps paid up front, so the measured window holds only the
steady-state serving path (ingest, persist, status, config).  Tenant
ids are chosen so their shard slots cycle round-robin, and each client
thread owns a fixed subset of them, issuing requests back to back.
Every request is classed ``ok``, ``rejected`` (HTTP 429 backpressure,
which is correct behaviour under load) or ``error``; an observe that
retunes is an ``error`` too, because steady durations must not move
the drift detector.  Requests started in the warm-up are dropped, and
latency percentiles are nearest-rank over the ``ok`` requests.

The simulator answers in microseconds, so this benchmark emulates
*production durable-commit latency*.  On a laptop-class ext4 mount an
fsync costs ~0.3 ms, so a single process would already sustain
thousands of appends per second and a worker sweep would measure
nothing but Python overhead.  A
production history store commits through a replicated WAL — tens of
milliseconds per quorum-acknowledged batch; the
``DurableCommitStore`` below charges that cost under the store lock,
which is the honest thing to measure: each worker process owns one
independent commit stream, so sharding multiplies sustained ingest
while a single process serializes every tenant behind one log.

The full run adds a reporting-only sweep over the real fsync'd
:class:`HistoryStore` (no emulated commit): the plain single-process
:class:`TuningService` against :class:`ShardedTuningService` at 1, 2
and 4 workers, 16 tenants, 8 clients.  Each store sits in a temporary
directory under ``--outdir``, so its fsyncs reach the disk that
directory is on.  Nothing is asserted on it; it records what sharding
buys over the store this repository actually ships.

Run the full sweep (the source of the committed JSON):

    PYTHONPATH=src python benchmarks/bench_service_load.py

or the CI-sized smoke sweep:

    PYTHONPATH=src python benchmarks/bench_service_load.py --smoke
"""

import argparse
import csv
import json
import math
import os
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy is imported: on a small host BLAS
# threads contend with each other and inflate the wall figures.  A value
# the caller sets explicitly still wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from repro.service import HistoryStore, ServiceError, TuningClient, TuningService
from repro.service.sharding import ShardedTuningService, stable_slot
from repro.stats.sampling import ensure_rng

#: Emulated durable-commit latency per acknowledged append batch (the
#: replicated-WAL / battery-backed-log ack a production store pays).
DURABLE_COMMIT_S = 0.05


class DurableCommitStore(HistoryStore):
    """History store that charges a durable-commit latency per batch.

    The wait happens under one lock per store, as in a process that
    commits every tenant through one replicated log: concurrent
    appenders to the same store queue behind one commit stream, which
    is exactly the bottleneck sharding is supposed to multiply away.
    """

    def __init__(self, root):
        super().__init__(root)
        self._commit_lock = threading.Lock()

    def append_many(self, app_id, records):
        with self._commit_lock:
            time.sleep(DURABLE_COMMIT_S)
        return super().append_many(app_id, records)


def durable_service(spec) -> TuningService:
    """Per-shard service over a :class:`DurableCommitStore`.

    Crosses into worker processes via the ``fork`` start method, so it
    needs no pickling — this module is never imported in the child.
    """
    return TuningService(
        spec.store_dir,
        host="127.0.0.1",
        port=0,
        n_workers=spec.tuning_threads,
        default_warm_start=spec.default_warm_start,
        max_pending=spec.max_pending,
        log_requests=spec.log_requests,
        admin=True,
        job_id_prefix=spec.job_id_prefix,
        store_factory=DurableCommitStore,
    )


def start_service(store_dir: str, workers: int, kind: str):
    """The service a swept configuration names, started on a free port.

    ``kind`` is ``"emulated"`` (sharded, :class:`DurableCommitStore` per
    worker), ``"sharded"`` (sharded, real store) or ``"plain"`` (one
    :class:`TuningService` process, real store; ``workers`` is 1).
    """
    if kind == "plain":
        return TuningService(store_dir, port=0).start()
    factory = durable_service if kind == "emulated" else None
    return ShardedTuningService(
        store_dir, port=0, workers=workers, service_factory=factory
    ).start()


#: Small-but-real tuner for load-test tenants: a full QCSA/IICP/BO
#: pass, sized so the one-off bootstrap costs well under a second.
TUNER = {"n_qcsa": 8, "n_iicp": 6, "max_iterations": 4, "min_iterations": 2,
         "n_mcmc": 0, "use_polish": False}
DATASIZE_GB = 10.0

#: The fixed operation mix: ingest-dominated with a trickle of reads.
MIX = "observe=0.9,status=0.05,config=0.05"

#: Column order of a run-table row (``run_table.csv`` and the JSON rows).
COLUMNS = (
    "mode", "workers", "tenants", "clients", "batch_size", "mix", "duration_s", "requests",
    "throughput_rps", "observe_throughput_rps", "p50_latency_ms", "p95_latency_ms",
    "p99_latency_ms", "failure_rate", "rejected_rate",
)


@dataclass(frozen=True)
class Tenant:
    app_id: str
    #: The deployed configuration's bootstrap runtime; steady-state
    #: observes report durations within 2% of it.
    baseline_s: float


@dataclass(frozen=True)
class Request:
    op: str  # "observe" | "status" | "config"
    tenant: str
    started_s: float  # since the run started; warm-up trimming keys on it
    latency_s: float
    outcome: str  # "ok" | "rejected" | "error"
    #: Observations landed: the batch size for an ok observe, else 0.
    n_observations: int


def balanced_tenant_ids(n: int) -> list[str]:
    """Tenant ids whose shard slots cycle 0, 1, 2, 3, 0, ...: at 1, 2 or 4
    workers the tenants spread evenly, so a worker sweep measures
    scaling, not the luck of the hash draw."""
    ids: list[str] = []
    candidate = 0
    while len(ids) < n:
        app_id = f"tenant-{candidate:04d}"
        candidate += 1
        if stable_slot(app_id) % 4 == len(ids) % 4:
            ids.append(app_id)
    return ids


def provision(client: TuningClient, n_tenants: int, seed: int = 1) -> list[Tenant]:
    """Register ``n_tenants`` and pay their bootstraps, 8 at a time."""
    ids = balanced_tenant_ids(n_tenants)
    for i, app_id in enumerate(ids):
        client.register_app(app_id, benchmark="join", seed=seed + i, tuner=TUNER)

    def bootstrap(app_id: str) -> Tenant:
        job = client.observe(app_id, datasize_gb=DATASIZE_GB)
        return Tenant(app_id, float(job["decision"]["tuning"]["best_duration_s"]))

    with ThreadPoolExecutor(max_workers=8) as pool:
        return list(pool.map(bootstrap, ids))


def issue(client, tenant: Tenant, op: str, rng, batch_size: int) -> tuple[str, int]:
    """Run one operation; returns (outcome, observations landed)."""
    try:
        if op == "status":
            client.app(tenant.app_id)
            return "ok", 0
        if op == "config":
            client.config(tenant.app_id)
            return "ok", 0
        durations = tenant.baseline_s * rng.uniform(0.98, 1.02, size=batch_size)
        if batch_size == 1:
            job = client.observe(tenant.app_id, DATASIZE_GB, float(durations[0]))
            decisions = [job["decision"]]
        else:
            batch = [{"datasize_gb": DATASIZE_GB, "duration_s": float(d)} for d in durations]
            decisions = client.observe_batch(tenant.app_id, batch)["decisions"]
    except ServiceError as exc:
        return ("rejected" if exc.status == 429 else "error"), 0
    except OSError:
        return "error", 0
    if any(decision["retuned"] for decision in decisions):
        return "error", 0
    return "ok", batch_size


def run_closed_loop(
    url: str,
    tenants: list[Tenant],
    duration_s: float,
    clients: int,
    batch_size: int = 1,
    seed: int = 1,
) -> list[Request]:
    """Drive back-to-back requests from ``clients`` threads.

    Client ``i`` owns ``tenants[i::clients]``, so two threads never
    interleave observes for one tenant (the service would serialize
    them anyway) and the measured concurrency stays honest.
    """
    if not tenants:
        raise ValueError("no tenants to drive")
    clients = min(clients, len(tenants))
    start = time.monotonic()

    def loop(index: int) -> list[Request]:
        rng = ensure_rng((seed, index))
        mine = tenants[index::clients]
        client = TuningClient(url)
        requests = []
        try:
            while (now := time.monotonic()) < start + duration_s:
                u = rng.random()
                op = "observe" if u < 0.9 else "status" if u < 0.95 else "config"
                tenant = mine[rng.integers(len(mine))]
                outcome, landed = issue(client, tenant, op, rng, batch_size)
                latency = time.monotonic() - now
                requests.append(Request(op, tenant.app_id, now - start, latency, outcome, landed))
        finally:
            client.close()
        return requests

    with ThreadPoolExecutor(max_workers=clients) as pool:
        return [request for done in pool.map(loop, range(clients)) for request in done]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100])."""
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def summarize(records: list[Request], duration_s: float, warmup_s: float, **context) -> dict:
    """One run-table row, dropping requests started in the warm-up.

    Rates divide by the window after the warm-up, not by the span of
    the kept requests, so an idle tail counts against throughput.
    ``observe_throughput_rps`` counts observations, so a batch of 32
    counts 32.  ``context`` fills the configuration columns.
    """
    if warmup_s >= duration_s:
        raise ValueError(f"warmup ({warmup_s}s) must be shorter than the run ({duration_s}s)")
    kept = [r for r in records if r.started_s >= warmup_s]
    ok = [r for r in kept if r.outcome == "ok"]
    window = duration_s - warmup_s
    latencies = [r.latency_s * 1000.0 for r in ok]

    def share(outcome: str) -> float:
        return round(sum(r.outcome == outcome for r in kept) / len(kept), 4) if kept else math.nan

    row = {
        "mode": "closed",
        "mix": MIX,
        **context,
        "duration_s": window,
        "requests": len(kept),
        "throughput_rps": round(len(ok) / window, 2),
        "observe_throughput_rps": round(sum(r.n_observations for r in ok) / window, 2),
        "p50_latency_ms": round(percentile(latencies, 50), 2),
        "p95_latency_ms": round(percentile(latencies, 95), 2),
        "p99_latency_ms": round(percentile(latencies, 99), 2),
        "failure_rate": share("error"),
        "rejected_rate": share("rejected"),
    }
    return {column: row[column] for column in COLUMNS}


def measure_config(
    workers: int,
    tenants: int,
    clients: int,
    duration_s: float,
    warmup_s: float,
    batch_size: int = 1,
    seed: int = 1,
    kind: str = "emulated",
    store_parent: str | None = None,
) -> dict:
    """One swept configuration: fresh store, provision, drive, summarize."""
    with tempfile.TemporaryDirectory(prefix="locat-load-", dir=store_parent) as store_dir:
        service = start_service(store_dir, workers, kind)
        try:
            client = TuningClient(service.url)
            plans = provision(client, tenants, seed=seed)
            client.close()
            records = run_closed_loop(
                service.url, plans, duration_s, clients, batch_size=batch_size, seed=seed
            )
        finally:
            service.close()
    return summarize(
        records,
        duration_s,
        warmup_s,
        workers=workers,
        tenants=tenants,
        clients=clients,
        batch_size=batch_size,
    )


def run_sweep(
    configs: list[dict],
    duration_s: float,
    warmup_s: float,
    seed: int = 1,
    store_parent: str | None = None,
) -> list[dict]:
    """The run-table rows of ``configs``, in order."""
    rows = []
    for config in configs:
        kind = config.get("service", "emulated")
        batch_size = config.get("batch_size", 1)
        print(
            f"  {kind} workers={config['workers']} tenants={config['tenants']} "
            f"clients={config['clients']} batch={batch_size} ({duration_s:.0f}s run)...",
            flush=True,
        )
        rows.append(
            measure_config(
                workers=config["workers"],
                tenants=config["tenants"],
                clients=config["clients"],
                duration_s=duration_s,
                warmup_s=warmup_s,
                batch_size=batch_size,
                seed=seed,
                kind=kind,
                store_parent=store_parent,
            )
        )
    return rows


def write_run_table(path: Path, rows: list[dict]) -> Path:
    """``rows`` as a CSV with the :data:`COLUMNS` header (the CI artifact)."""
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(COLUMNS))
        writer.writeheader()
        writer.writerows(rows)
    return path


def _row(rows: list[dict], workers: int, tenants: int, batch_size: int = 1) -> dict:
    for row in rows:
        if (row["workers"], row["tenants"], row["batch_size"]) == (workers, tenants, batch_size):
            return row
    raise KeyError(f"no row for workers={workers} tenants={tenants} batch={batch_size}")


def print_rows(rows: list[dict]) -> None:
    for row in rows:
        print(
            f"  {row.get('service', 'emulated'):>8} workers={row['workers']} "
            f"tenants={row['tenants']} batch={row['batch_size']}: "
            f"{row['observe_throughput_rps']} observes/s, p95 {row['p95_latency_ms']} ms, "
            f"failure rate {row['failure_rate']}, rejected rate {row['rejected_rate']}"
        )


FULL_CONFIGS = [
    {"workers": 1, "tenants": 4, "clients": 4},
    {"workers": 4, "tenants": 4, "clients": 4},
    {"workers": 1, "tenants": 16, "clients": 8},
    {"workers": 2, "tenants": 16, "clients": 8},
    {"workers": 4, "tenants": 16, "clients": 8},
    # Batched ingestion: same worker fleet, 32 observations per commit.
    {"workers": 4, "tenants": 16, "clients": 8, "batch_size": 32},
]

#: Reporting-only: the same 16-tenant load over the real fsync'd store.
REAL_STORE_CONFIGS = [
    {"service": "plain", "workers": 1, "tenants": 16, "clients": 8},
    {"service": "sharded", "workers": 1, "tenants": 16, "clients": 8},
    {"service": "sharded", "workers": 2, "tenants": 16, "clients": 8},
    {"service": "sharded", "workers": 4, "tenants": 16, "clients": 8},
]

SMOKE_CONFIGS = [
    {"workers": 1, "tenants": 8, "clients": 8},
    {"workers": 2, "tenants": 8, "clients": 8},
]


def smoke(outdir: Path, seed: int = 1) -> int:
    rows = run_sweep(SMOKE_CONFIGS, duration_s=3.0, warmup_s=0.75, seed=seed)
    print_rows(rows)
    path = write_run_table(outdir / "run_table.csv", rows)
    print(f"wrote {path}")
    scaling = (
        _row(rows, 2, 8)["observe_throughput_rps"] / _row(rows, 1, 8)["observe_throughput_rps"]
    )
    print(f"observe-throughput scaling 1 -> 2 workers: {scaling:.2f}x")
    for row in rows:
        if row["failure_rate"] > 0:
            print(f"smoke FAILED: failures in {row}", file=sys.stderr)
            return 1
    if scaling < 1.5:
        print(f"smoke FAILED: expected >= 1.5x, got {scaling:.2f}x", file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


def full(outdir: Path, seed: int = 1) -> int:
    duration_s, warmup_s = 12.0, 2.0
    rows = run_sweep(FULL_CONFIGS, duration_s, warmup_s, seed=seed)
    print_rows(rows)
    one, four = _row(rows, 1, 16), _row(rows, 4, 16)
    scaling = four["observe_throughput_rps"] / one["observe_throughput_rps"]
    print("real fsync'd store (reporting only):")
    real = run_sweep(
        REAL_STORE_CONFIGS, duration_s, warmup_s, seed=seed, store_parent=str(outdir)
    )
    for row, config in zip(real, REAL_STORE_CONFIGS):
        row["service"] = config["service"]
    print_rows(real)
    result = {
        "durable_commit_ms": DURABLE_COMMIT_S * 1000.0,
        "duration_s": duration_s,
        "warmup_s": warmup_s,
        "mix": MIX,
        "rows": rows,
        "scaling_4w_over_1w_16t": scaling,
        "real_store": {"rows": real},
    }
    path = outdir / "BENCH_service_load.json"
    with path.open("w") as handle:
        json.dump(result, handle, indent=2)
    print(f"wrote {path}")
    print(f"observe-throughput scaling 1 -> 4 workers @ 16 tenants: {scaling:.2f}x")
    ok = True
    if scaling < 2.5:
        print(f"FAILED: expected >= 2.5x at 4 workers, got {scaling:.2f}x", file=sys.stderr)
        ok = False
    p95_1, p95_4 = one["p95_latency_ms"], four["p95_latency_ms"]
    if p95_4 > p95_1 * 1.05:
        print(
            f"FAILED: p95 regressed under sharding ({p95_4:.1f} ms vs {p95_1:.1f} ms)",
            file=sys.stderr,
        )
        ok = False
    for row in rows:
        if row["failure_rate"] > 0:
            print(f"FAILED: failures in {row}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="two small configurations (~15 s total); asserts 2 workers "
        "sustain >= 1.5x the single-worker observe throughput (for CI)",
    )
    parser.add_argument(
        "--outdir", default=".",
        help="where run_table.csv (smoke) / BENCH_service_load.json (full) go",
    )
    parser.add_argument("--seed", type=int, default=1, help="random seed")
    args = parser.parse_args(argv)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke(outdir, seed=args.seed)
    return full(outdir, seed=args.seed)


if __name__ == "__main__":
    raise SystemExit(main())
