"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tune`` — run LOCAT on a benchmark, check the tuned configuration
  against the cluster defaults with a paired A/B test, and print (or
  save) it as spark-defaults.conf when it wins; ``--transfer-store``
  warm-starts from a similar application found in a tuning-service
  history store;
* ``qcsa`` — standalone query-sensitivity analysis (Figure 8 style);
* ``compare`` — LOCAT vs the four baselines on one benchmark;
* ``simulate`` — run one configuration and print the metrics;
* ``serve`` — run the multi-tenant tuning service (HTTP JSON API) with
  a persistent history store; ``--workers N`` shards tenants across N
  worker processes behind a routing front end;
* ``check`` — run the repo's own static-analysis rules (RNG/seed
  discipline, hash-order iteration, falsy-zero defaulting, float
  equality, validate-before-persist, lock discipline) over the source
  tree; see docs/static-analysis.md.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import LOCAT, SparkSQLObjective
from repro.core.export import diff_configs, to_spark_defaults_conf
from repro.core.promotion import SHADOW_SEED_SALT
from repro.replay import REPLAY_EVAL_MODES
from repro.core.qcsa import QCSA, analyze_samples
from repro.harness.report import format_table
from repro.sparksim import SparkSQLSimulator, get_application, list_benchmarks
from repro.sparksim.cluster import get_cluster
from repro.stats.abtest import compare_paired
from repro.stats.sampling import ensure_rng


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmark", default="tpcds", choices=list_benchmarks(),
        help="workload to run (default: tpcds)",
    )
    parser.add_argument(
        "--cluster", default="x86", choices=("arm", "x86"),
        help="simulated cluster (default: x86)",
    )
    parser.add_argument("--datasize", type=float, default=300.0, help="input size in GB")
    parser.add_argument("--seed", type=int, default=1, help="random seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LOCAT (SIGMOD 2022) reproduction: tune Spark SQL configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="tune a benchmark with LOCAT")
    _add_common(tune)
    tune.add_argument("--iterations", type=int, default=25, help="max BO iterations")
    tune.add_argument(
        "--workers", type=int, default=1,
        help="parallel evaluation workers: each BO refit proposes that many "
        "configurations (constant-liar q-EI) and runs them concurrently; "
        "1 (default) reproduces the serial trajectory exactly",
    )
    tune.add_argument(
        "--shadow-runs", type=int, default=6, metavar="N",
        help="paired measurements of the tuned configuration against the "
        "cluster defaults under common random numbers before it is written "
        "(default: 6)",
    )
    tune.add_argument(
        "--ab-alpha", type=float, default=0.05, metavar="A",
        help="significance level of that paired bootstrap interval "
        "(default: 0.05)",
    )
    tune.add_argument("--output", help="write spark-defaults.conf here")
    tune.add_argument(
        "--transfer-store", metavar="DIR",
        help="warm-start from a tuning-service history store: the most "
        "similar tuned application found there donates its history and "
        "the bootstrap shrinks to a few runs (cold start when no donor "
        "qualifies)",
    )
    tune.add_argument(
        "--transfer-donor", metavar="APP_ID",
        help="pin the donor application instead of ranking by workload "
        "fingerprint (requires --transfer-store)",
    )

    qcsa = sub.add_parser("qcsa", help="query configuration sensitivity analysis")
    _add_common(qcsa)
    qcsa.add_argument("--samples", type=int, default=30, help="number of random runs")

    compare = sub.add_parser("compare", help="LOCAT vs the SOTA baselines")
    _add_common(compare)

    simulate = sub.add_parser("simulate", help="run one configuration")
    _add_common(simulate)
    simulate.add_argument(
        "--set", action="append", default=[], metavar="NAME=VALUE",
        help="override a parameter (repeatable), e.g. --set sql.shuffle.partitions=800",
    )

    serve = sub.add_parser("serve", help="run the multi-tenant tuning service")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080, help="bind port (default: 8080)")
    serve.add_argument(
        "--store", default="./tuning-store",
        help="history store directory (default: ./tuning-store); registered "
        "applications found there are rehydrated on startup",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes; 1 (default) runs the classic single-process "
        "service, >1 shards tenants across that many processes by a stable "
        "hash of the application id (see docs/architecture.md)",
    )
    serve.add_argument(
        "--tuning-threads", type=int, default=4,
        help="tuning worker threads per process, shared across that "
        "process's applications (default: 4)",
    )
    serve.add_argument(
        "--eval-workers", type=int, default=1,
        help="per-session parallel evaluation workers for tenants that do not "
        "set tuner.n_workers themselves (default: 1, fully serial sessions)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help="per-process backlog bound: beyond N queued jobs the service "
        "answers 429 with a Retry-After hint (default: unbounded)",
    )
    serve.add_argument(
        "--log-requests", action="store_true",
        help="log every HTTP request to stderr (off by default; at load-test "
        "rates the synchronized stderr writes are a bottleneck)",
    )
    serve.add_argument(
        "--warm-start", default="cold", choices=("cold", "transfer"),
        help="default bootstrap mode for registrations that do not choose "
        "one: 'transfer' seeds new tenants from the most similar existing "
        "tenant's history (default: cold)",
    )
    serve.add_argument(
        "--replay-eval", default="off", choices=REPLAY_EVAL_MODES,
        help="default trace-replay evaluation mode for tenants that do not "
        "set tuner.replay_eval themselves: 'off' (default) or 'race' "
        "(score partial-retune candidates on common-random-number replays "
        "of the tenant's production trace; see docs/replay.md)",
    )

    from repro.analysis.cli import build_check_parser

    check = sub.add_parser(
        "check",
        help="run the repo's static-analysis rules (see docs/static-analysis.md)",
    )
    build_check_parser(check)
    return parser


def _make(args) -> tuple[SparkSQLSimulator, object]:
    simulator = SparkSQLSimulator(get_cluster(args.cluster))
    return simulator, get_application(args.benchmark)


def _transfer_plan(args, app):
    """Resolve --transfer-store/--transfer-donor into a TransferPlan."""
    import os

    from repro.service import HistoryStore
    from repro.transfer import (
        WorkloadFingerprint,
        build_transfer_plan,
        donor_candidate,
        select_donor,
    )

    # HistoryStore creates its root; a mistyped path would silently
    # become an empty store and a cold start.  Reading requires the
    # directory to already exist.
    if not os.path.isdir(args.transfer_store):
        raise ValueError(f"--transfer-store {args.transfer_store!r} is not a directory")
    store = HistoryStore(args.transfer_store)
    fingerprint = WorkloadFingerprint.from_application(app, benchmark=args.benchmark)
    if args.transfer_donor:
        # A pinned donor skips the similarity ranking *and* the default
        # observation floor — the operator vouched for it; it still needs
        # persisted artifacts and at least one tuning row.
        candidate = donor_candidate(
            store, fingerprint, args.transfer_donor, min_observations=1
        )
        if candidate is None:
            raise ValueError(
                f"donor {args.transfer_donor!r} not usable from {args.transfer_store}: "
                "not registered there, never bootstrapped (no persisted CPS "
                "artifacts), or no tuning observations"
            )
    else:
        candidate = select_donor(store, fingerprint)
    if candidate is None:
        print("no sufficiently similar donor in the store; starting cold")
        return None
    print(
        f"transfer warm start from {candidate.app_id!r} "
        f"({candidate.benchmark}, fingerprint similarity {candidate.similarity:.2f}, "
        f"{candidate.n_observations} donor observations)"
    )
    if args.transfer_donor:
        # The pin also waives the similarity gate inside the plan — the
        # operator overrode the fingerprint ranking on purpose.  The CPS
        # agreement gate still applies: it is measured from the target's
        # own bootstrap samples, not from the ranking.
        return build_transfer_plan(store, candidate, min_similarity=0.0)
    return build_transfer_plan(store, candidate)


def cmd_tune(args) -> int:
    simulator, app = _make(args)
    if args.transfer_donor and not args.transfer_store:
        print("--transfer-donor requires --transfer-store", file=sys.stderr)
        return 2
    plan = None
    if args.transfer_store:
        try:
            plan = _transfer_plan(args, app)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    print(f"Tuning {app.name} at {args.datasize:.0f} GB on the {args.cluster} cluster...")
    locat = LOCAT(
        simulator, app, rng=args.seed, max_iterations=args.iterations,
        n_workers=args.workers, transfer_from=plan,
    )
    result = locat.tune(args.datasize)
    if plan is not None:
        print(
            f"transfer {locat.transfer_state}: CPS agreement "
            f"{locat.transfer_agreement:.2f}, refined similarity "
            f"{locat.transfer_similarity:.2f}"
        )
    print(result.summary())

    changed = diff_configs(simulator.space.default(), result.best_config)
    rows = [[k, a, b] for k, (a, b) in sorted(changed.items())]
    print(format_table(["parameter", "default", "tuned"], rows, title="Changed parameters"))

    # Gate the tuned config against the cluster defaults: both arms are
    # measured under common random numbers (identically seeded
    # generators per pair) and compared with a paired bootstrap.
    baseline = simulator.space.default()
    baseline_s, challenger_s = [], []
    for k in range(args.shadow_runs):
        seed = (SHADOW_SEED_SALT, args.seed, k)
        baseline_s.append(
            simulator.run(app, baseline, args.datasize, rng=ensure_rng(seed)).duration_s
        )
        challenger_s.append(
            simulator.run(
                app, result.best_config, args.datasize, rng=ensure_rng(seed)
            ).duration_s
        )
    test = compare_paired(
        baseline_s, challenger_s, alpha=args.ab_alpha,
        seed=(SHADOW_SEED_SALT, args.seed),
    )
    print(
        f"\nShadow A/B vs cluster defaults over {args.shadow_runs} "
        f"paired runs: mean speedup {test.mean_speedup:.3f}x, "
        f"log-delta CI [{test.ci_low:+.4f}, {test.ci_high:+.4f}] "
        f"at alpha={args.ab_alpha:g}"
    )
    if test.significant and test.winner == "challenger":
        print("verdict: promote — tuned config significantly beats the defaults")
    else:
        print(
            "verdict: reject — no significant win over the defaults; "
            "not writing the tuned configuration"
        )
        return 1

    conf = to_spark_defaults_conf(
        result.best_config,
        header=(
            f"Tuned by LOCAT reproduction for {app.name} @ {args.datasize:.0f} GB\n"
            f"best observed duration: {result.best_duration_s:.1f}s; "
            f"optimization cost: {result.overhead_hours:.2f}h"
        ),
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(conf)
        print(f"\nwrote {args.output}")
    else:
        print("\n" + conf)
    return 0


def cmd_qcsa(args) -> int:
    simulator, app = _make(args)
    objective = SparkSQLObjective(simulator, app, rng=args.seed)
    print(f"Running {app.name} {args.samples} times with random configurations...")
    samples = QCSA(n_samples=args.samples).collect(objective, args.datasize, rng=args.seed)
    result = analyze_samples(samples)
    ranked = sorted(result.cvs.items(), key=lambda kv: -kv[1])
    rows = [[n, cv, "CSQ" if n in result.csq else "CIQ"] for n, cv in ranked]
    print(format_table(["query", "CV", "class"], rows, title="Query configuration sensitivity"))
    print(
        f"\nCSQ {len(result.csq)} / CIQ {len(result.ciq)}; threshold {result.threshold:.2f}; "
        f"RQA keeps {100 * (1 - result.reduction_ratio):.0f}% of the queries"
    )
    return 0


def cmd_compare(args) -> int:
    from repro.harness.experiment import compare_tuners

    print(f"Comparing tuners on {args.benchmark} @ {args.datasize:.0f} GB "
          f"({args.cluster})... this runs thousands of simulated jobs")
    comparison = compare_tuners(
        benchmark=args.benchmark,
        cluster=args.cluster,
        datasize_gb=args.datasize,
        seed=args.seed,
    )
    rows = []
    for name, result in comparison.results.items():
        rows.append([
            name,
            result.best_duration_s,
            result.overhead_hours,
            result.evaluations,
            "-" if name == "LOCAT" else f"{comparison.overhead_ratio(name):.1f}x",
        ])
    print(format_table(
        ["tuner", "tuned time (s)", "overhead (h)", "runs", "overhead vs LOCAT"],
        rows,
    ))
    return 0


def cmd_simulate(args) -> int:
    simulator, app = _make(args)
    overrides = {}
    for item in args.set:
        if "=" not in item:
            print(f"bad --set value {item!r}; expected NAME=VALUE", file=sys.stderr)
            return 2
        name, _, raw = item.partition("=")
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            value = float(raw)
        overrides[name] = value
    try:
        config = simulator.space.make(**overrides)
    except ValueError as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return 2
    metrics = simulator.run(app, config, args.datasize, rng=args.seed)
    slowest = sorted(metrics.queries, key=lambda q: -q.duration_s)[:10]
    rows = [[q.name, q.duration_s, q.gc_s, q.shuffle_bytes_gb] for q in slowest]
    print(format_table(
        ["query", "duration (s)", "GC (s)", "shuffle GB"],
        rows,
        title=f"{app.name} @ {args.datasize:.0f} GB — slowest 10 queries",
    ))
    print(f"\ntotal {metrics.duration_s:.1f}s, GC {metrics.gc_s:.1f}s, "
          f"{len(metrics.failed_queries)} failed queries")
    return 0


def cmd_serve(args) -> int:
    from repro.service import ShardedTuningService, TuningService

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.workers == 1:
        service = TuningService(
            args.store, host=args.host, port=args.port,
            n_workers=args.tuning_threads, eval_workers=args.eval_workers,
            default_warm_start=args.warm_start,
            default_replay_eval=args.replay_eval,
            max_pending=args.max_pending, log_requests=args.log_requests,
        )
        rehydrated = service.registry.app_ids()
        print(f"tuning service listening on {service.url} (store: {args.store})")
        if rehydrated:
            print(f"rehydrated {len(rehydrated)} application(s): {', '.join(rehydrated)}")
    else:
        service = ShardedTuningService(
            args.store, host=args.host, port=args.port, workers=args.workers,
            tuning_threads=args.tuning_threads, eval_workers=args.eval_workers,
            default_warm_start=args.warm_start,
            default_replay_eval=args.replay_eval,
            max_pending=args.max_pending, log_requests=args.log_requests,
        )
        print(
            f"sharded tuning service listening on {service.url} "
            f"({args.workers} workers, store: {args.store})"
        )
    print("endpoints: POST /apps, POST /apps/<id>/observe, "
          "POST /apps/<id>/observe_batch, GET /apps/<id>/config, "
          "GET /apps/<id>/history, GET /jobs/<id>")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.close()
    return 0


def cmd_check(args) -> int:
    from repro.analysis.cli import cmd_check as run

    return run(args)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "tune": cmd_tune,
        "qcsa": cmd_qcsa,
        "compare": cmd_compare,
        "simulate": cmd_simulate,
        "serve": cmd_serve,
        "check": cmd_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
