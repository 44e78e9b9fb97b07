"""Service load: observe-throughput scaling across worker processes.

The ROADMAP's scale item asks the service front end to outgrow one
process.  This benchmark sweeps tenant count × worker count with the
:mod:`repro.loadgen` harness on the observe-heavy mix and records the
repo's standing service-perf curve: sustained observe throughput,
latency percentiles, and the failure taxonomy per configuration, in the
canonical ``run_table.csv`` shape (plus ``BENCH_service_load.json``).

Like ``bench_parallel_speedup`` — which emulates cluster
sample-collection latency because the simulator answers in
microseconds — this benchmark emulates *production durable-commit
latency*.  On a laptop-class ext4 mount an fsync costs ~0.3 ms, so a
single process would already sustain thousands of appends per second
and a worker sweep would measure nothing but Python overhead.  A
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

Run the full sweep (also the source of the committed artifacts):

    PYTHONPATH=src python benchmarks/bench_service_load.py

or the CI-sized smoke sweep:

    PYTHONPATH=src python benchmarks/bench_service_load.py --smoke
"""

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.loadgen import (
    OBSERVE_HEAVY,
    format_report,
    provision_tenants,
    run_closed_loop,
    run_table_row,
    summarize,
    write_run_table,
)
from repro.service import HistoryStore, TuningClient, TuningService
from repro.service.sharding import ShardedTuningService

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
        eval_workers=spec.eval_workers,
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
            plans = provision_tenants(client, tenants, seed=seed)
            records = run_closed_loop(
                service.url,
                plans,
                OBSERVE_HEAVY,
                duration_s=duration_s,
                clients=clients,
                batch_size=batch_size,
                seed=seed,
            )
            client.close()
        finally:
            service.close()
    summary = summarize(records, duration_s=duration_s, warmup_s=warmup_s)
    row = run_table_row(
        summary,
        mode="closed",
        workers=workers,
        tenants=tenants,
        clients=clients,
        batch_size=batch_size,
        mix=str(OBSERVE_HEAVY),
    )
    return {"row": row, "summary": summary.to_json()}


def run_sweep(
    configs: list[dict],
    duration_s: float,
    warmup_s: float,
    seed: int = 1,
    store_parent: str | None = None,
) -> dict:
    results = []
    for config in configs:
        kind = config.get("service", "emulated")
        print(
            f"  {kind} workers={config['workers']} tenants={config['tenants']} "
            f"clients={config['clients']} batch={config.get('batch_size', 1)} "
            f"({duration_s:.0f}s run)...",
            flush=True,
        )
        results.append(
            measure_config(
                workers=config["workers"],
                tenants=config["tenants"],
                clients=config["clients"],
                duration_s=duration_s,
                warmup_s=warmup_s,
                batch_size=config.get("batch_size", 1),
                seed=seed,
                kind=kind,
                store_parent=store_parent,
            )
        )
    return {
        "durable_commit_ms": DURABLE_COMMIT_S * 1000.0,
        "duration_s": duration_s,
        "warmup_s": warmup_s,
        "mix": str(OBSERVE_HEAVY),
        "rows": [r["row"] for r in results],
        "summaries": [r["summary"] for r in results],
    }


def _tput(result: dict, workers: int, tenants: int, batch_size: int = 1) -> float:
    for row in result["rows"]:
        if (
            row["workers"] == workers
            and row["tenants"] == tenants
            and row["batch_size"] == batch_size
        ):
            return float(row["observe_throughput_rps"])
    raise KeyError(f"no row for workers={workers} tenants={tenants} batch={batch_size}")


def _p95(result: dict, workers: int, tenants: int, batch_size: int = 1) -> float:
    for row in result["rows"]:
        if (
            row["workers"] == workers
            and row["tenants"] == tenants
            and row["batch_size"] == batch_size
        ):
            return float(row["p95_latency_ms"])
    raise KeyError(f"no row for workers={workers} tenants={tenants} batch={batch_size}")


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
    result = run_sweep(SMOKE_CONFIGS, duration_s=3.0, warmup_s=0.75, seed=seed)
    print(format_report(result["rows"]))
    write_run_table(outdir / "run_table.csv", result["rows"])
    print(f"wrote {outdir / 'run_table.csv'}")
    scaling = _tput(result, 2, 8) / _tput(result, 1, 8)
    print(f"observe-throughput scaling 1 -> 2 workers: {scaling:.2f}x")
    for row in result["rows"]:
        if row["failure_rate"] > 0:
            print(f"smoke FAILED: failures in {row}", file=sys.stderr)
            return 1
    if scaling < 1.5:
        print(f"smoke FAILED: expected >= 1.5x, got {scaling:.2f}x", file=sys.stderr)
        return 1
    print("smoke ok")
    return 0


def full(outdir: Path, seed: int = 1) -> int:
    result = run_sweep(FULL_CONFIGS, duration_s=12.0, warmup_s=2.0, seed=seed)
    print(format_report(result["rows"]))
    scaling = _tput(result, 4, 16) / _tput(result, 1, 16)
    result["scaling_4w_over_1w_16t"] = scaling
    print("real fsync'd store (reporting only):")
    real = run_sweep(
        REAL_STORE_CONFIGS, duration_s=12.0, warmup_s=2.0, seed=seed, store_parent=str(outdir)
    )
    for row, config in zip(real["rows"], REAL_STORE_CONFIGS):
        row["service"] = config["service"]
        print(
            f"  {row['service']:>7} workers={row['workers']}: "
            f"{row['observe_throughput_rps']} observes/s, p95 {row['p95_latency_ms']} ms, "
            f"failure rate {row['failure_rate']}"
        )
    result["real_store"] = {"rows": real["rows"], "summaries": real["summaries"]}
    write_run_table(outdir / "run_table.csv", result["rows"])
    with (outdir / "BENCH_service_load.json").open("w") as handle:
        json.dump(result, handle, indent=2)
    print(f"wrote {outdir / 'run_table.csv'} and {outdir / 'BENCH_service_load.json'}")
    print(f"observe-throughput scaling 1 -> 4 workers @ 16 tenants: {scaling:.2f}x")
    ok = True
    if scaling < 2.5:
        print(f"FAILED: expected >= 2.5x at 4 workers, got {scaling:.2f}x", file=sys.stderr)
        ok = False
    p95_1, p95_4 = _p95(result, 1, 16), _p95(result, 4, 16)
    if p95_4 > p95_1 * 1.05:
        print(
            f"FAILED: p95 regressed under sharding ({p95_4:.1f} ms vs {p95_1:.1f} ms)",
            file=sys.stderr,
        )
        ok = False
    for row in result["rows"]:
        if row["failure_rate"] > 0:
            print(f"FAILED: failures in {row}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


def test_service_load_smoke(run_once):
    """Two workers must out-ingest one on the observe-heavy mix."""
    result = run_once(run_sweep, SMOKE_CONFIGS, 3.0, 0.75)
    print("\n" + format_report(result["rows"]))
    scaling = _tput(result, 2, 8) / _tput(result, 1, 8)
    assert all(row["failure_rate"] == 0 for row in result["rows"])
    assert scaling >= 1.5, f"expected >= 1.5x with 2 workers, got {scaling:.2f}x"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="two small configurations (~15 s total); asserts 2 workers "
        "sustain >= 1.5x the single-worker observe throughput (for CI)",
    )
    parser.add_argument(
        "--outdir", default=".", help="where run_table.csv / BENCH_service_load.json go",
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
