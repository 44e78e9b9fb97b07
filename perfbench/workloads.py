"""The benchmark's workloads: cold tuning, drift retunes, HTTP observes.

Each workload drives the program through its public API, times it from
outside, checks its outputs, and returns the end-to-end metrics (and,
in a traced run, the per-layer metrics).  See README.md in this
directory for why each workload exists and what each metric means.
"""

from __future__ import annotations

import json
import math
import pickle
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from common import HostSpeed, geomean, mean, median, peak_rss_mb, tail
from tracer import SPAN_FIELDS

HERE = Path(__file__).resolve().parent
DATASIZE_GB = 100.0
CLUSTER = "x86"

#: Small session budgets (the service tests' tuner): the HTTP tenants
#: and every workload of the tiny self-test use them.
SMALL_TUNER = {"n_qcsa": 10, "n_iicp": 8, "max_iterations": 6, "min_iterations": 3, "n_mcmc": 0}

#: Nominal wall time of one operation on a 2-vCPU x86 VM, used only
#: to turn ``--seconds`` into a fixed, seed-determined amount of work:
#: a default-budget TPC-DS session plus its fresh-interpreter set-up,
#: one 30-run TPC-H drift stream, and one drift tenant deployment.
COLD_SESSION_S = 2.5
DRIFT_STREAM_S = 0.7
DRIFT_DEPLOY_S = 1.6

#: drift_race runs every stream once per round, rounds in turn, and a
#: retune's time is the fastest of its runs: the host alternates between
#: a fast state and one about 1.7x slower in phases of 2-11 s, and a
#: round is long enough that a retune's two runs rarely both land in a
#: slow phase.  The repeat also checks that a seeded stream gives the
#: same retunes and durations twice.  cold_tune does not repeat: its
#: sessions differ in cost from seed to seed (coefficient of variation
#: about 0.2) more than from run to run, so distinct sessions steady
#: its mean more than repeated ones.
ROUNDS = 2

DRIFT_SCENARIOS = ("abrupt_skew", "degradation", "node_loss")
#: The drift tenants are fixed, so every run deploys the same tenants and
#: pays the same set-up; the workload seed draws each stream's scenario
#: (kind, onset, severity) and its production runs.  Each tenant is
#: deployed once per round, so the deployments are spread over the run.
DRIFT_TENANT_SEED = 0
DRIFT_TENANTS = 3
#: A cold_tune set-up, timed before every session: a fresh
#: interpreter importing the tuner and building simulator, plan and
#: tuner, as ``repro tune`` does.
COLD_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.core import LOCAT; "
    "from repro.sparksim import SparkSQLSimulator, get_application; "
    "from repro.sparksim.cluster import get_cluster; "
    "simulator = SparkSQLSimulator(get_cluster(sys.argv[2])); "
    "LOCAT(simulator, get_application(sys.argv[3]))"
)
HTTP_APPS = ("tpcds", "tpch", "join", "scan", "aggregation")
HTTP_TENANTS = 16
HTTP_CONNECTIONS = 2
HTTP_READ_SHARE = 0.2
HTTP_DURATIONS = 40
HTTP_HISTORY_LIMIT = 20

#: End-to-end metrics, printed by every untraced run, with their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_s": "s",
    "evals_per_session": "count",
    "overhead_sim_s": "s",
    "tuned_sim_s": "s",
}

#: Layers whose self time the traced run reports, per operation.
SELF_LAYERS = (
    "bench", "locat", "sparksim", "qcsa", "iicp", "dagp", "mcmc", "acq",
    "race", "online", "adapt", "registry", "store",
)

#: Per-layer metrics, printed by every traced run, with their units.
PER_LAYER = {
    "sparksim.runs": "count",
    "sparksim.ms_per_run": "ms",
    "qcsa.busy_s": "s",
    "iicp.busy_s": "s",
    "dagp.fit.calls": "count",
    "dagp.fit.ms_per_call": "ms",
    "dagp.extend.calls": "count",
    "dagp.extend.ms_per_call": "ms",
    "mcmc.busy_s": "s",
    "mcmc.lml_evals": "count",
    "lml_cache.hit_rate": "ratio",
    "acq.busy_s": "s",
    "acq.points_scored": "count",
    "replay.sim_runs": "count",
    "replay.cache_hit_rate": "ratio",
    "race.busy_s": "s",
    "race.survivors_per_entrant": "ratio",
    "online.decide_ms": "ms",
    "online.predict_ms": "ms",
    "adapt.busy_s": "s",
    "http.transport_ms": "ms",
    "http.observe_p50_ms": "ms",
    "http.observe_tail_ms": "ms",
    "http.read_p50_ms": "ms",
    "scheduler.queue_ms": "ms",
    "scheduler.queue_tail_ms": "ms",
    "scheduler.run_ms": "ms",
    "registry.observe_ms": "ms",
    "store.append_ms": "ms",
    "store.save_deployment_ms": "ms",
    "store.fsyncs_per_observe": "count",
    "store.bytes_per_observe": "B",
    "store.read_ms": "ms",
    "store.rows_parsed_per_row_returned": "ratio",
    "trace.op_s": "s",
    "trace.spans_per_op": "count",
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
}


class CheckFailed(RuntimeError):
    """The program produced an output the benchmark does not accept."""


@dataclass
class Context:
    src: Path
    work: Path
    seed: int
    seconds: int
    tiny: bool
    tracer: object | None = None

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def start_measuring(self) -> None:
        """Counters from here on belong to the measured phase."""
        if self.tracer is not None:
            self.tracer.reset_counts()

    @contextmanager
    def unmeasured(self):
        """Set-up work inside the measured phase: its counters are dropped."""
        if self.tracer is None:
            yield
            return
        saved = self.tracer.save_counts()
        try:
            yield
        finally:
            self.tracer.restore_counts(saved)


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    #: Raw per-layer inputs gathered by the workload (traced runs).
    layer_inputs: dict = field(default_factory=dict)
    #: Spans recorded in other processes (the HTTP server).
    foreign: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# cold_tune
# ----------------------------------------------------------------------
def cold_tune(ctx: Context) -> Outcome:
    """Serial cold ``LOCAT.tune`` sessions on TPC-DS at default budgets."""
    from repro.core import LOCAT
    from repro.sparksim import SparkSQLSimulator, get_application
    from repro.sparksim.cluster import get_cluster

    benchmark, budgets = ("join", SMALL_TUNER) if ctx.tiny else ("tpcds", {})
    n_sessions = 1 if ctx.tiny else max(1, round(ctx.seconds / COLD_SESSION_S))

    def build(index: int):
        simulator = SparkSQLSimulator(get_cluster(CLUSTER))
        app = get_application(benchmark)
        return simulator, app, LOCAT(simulator, app, rng=(ctx.seed, index), **budgets)

    def setup() -> float:
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms
        # and the set-up times come out in 50 ms steps.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", COLD_SETUP_CODE, str(ctx.src), CLUSTER, benchmark],
                       check=True)
        return time.perf_counter() - start

    warm = build(0)[2].tune(DATASIZE_GB)  # untimed warm-up; the first session repeats it
    ctx.start_measuring()
    speed = HostSpeed()
    setups, walls, results = [], [], []
    for index in range(n_sessions):
        speed.sample()
        setups.append(setup())
        simulator, app, locat = build(index)
        with ctx.span("bench.op"):
            start = time.perf_counter()
            result = locat.tune(DATASIZE_GB)
            walls.append(time.perf_counter() - start)
        default_s = simulator.run(app, simulator.space.default(), DATASIZE_GB,
                                  rng=(ctx.seed, index, 1)).duration_s
        results.append(result)
        check(result.evaluations > 0 and math.isfinite(result.best_duration_s)
              and result.best_duration_s > 0, f"session {index}: degenerate result")
        check(result.best_duration_s < default_s,
              f"session {index}: tuned {result.best_duration_s:.1f}s does not beat "
              f"the default configuration's {default_s:.1f}s")
    first = results[0]
    check((warm.evaluations, warm.best_duration_s, warm.overhead_s)
          == (first.evaluations, first.best_duration_s, first.overhead_s),
          "a repeated seeded session gave different evaluations or durations")
    raw = {"op_s": sum(walls) / n_sessions, "setup_s": median(setups)}
    op_s = raw["op_s"] / speed.factor
    return Outcome(
        metrics={
            # The same work every time: the median of the set-ups.
            "setup_s": raw["setup_s"] / speed.factor,
            "peak_rss_mb": peak_rss_mb(),
            "op_s": op_s,
            "evals_per_session": mean([r.evaluations for r in results]),
            "overhead_sim_s": geomean([r.overhead_s for r in results]),
            "tuned_sim_s": geomean([r.best_duration_s for r in results]),
        },
        attempted=n_sessions,
        failed=0,
        layer_inputs={"ops": n_sessions, "op_s": op_s},
        summary={"sessions": n_sessions, "raw": raw, "host_factor": speed.factor,
                 "session_walls_s": walls, "setups_s": setups,
                 "evaluations": [r.evaluations for r in results]},
    )


# ----------------------------------------------------------------------
# drift_race
# ----------------------------------------------------------------------
def _drift_scenario(name: str, n_steps: int, rng):
    """One abrupt-drift scenario with onset and severity drawn from ``rng``."""
    from repro.sparksim.scenarios import build_scenario

    onset = int(rng.integers(n_steps // 4, n_steps // 2))
    severity = {
        "abrupt_skew": {"shift": float(rng.uniform(0.4, 0.6))},
        "degradation": {"disk_factor": float(rng.uniform(0.4, 0.5)),
                        "core_factor": float(rng.uniform(0.7, 0.8))},
        "node_loss": {"lost_workers": int(rng.integers(2, 4))},
    }[name]
    return build_scenario(name, n_steps=n_steps, onset=onset, **severity)


def drift_race(ctx: Context) -> Outcome:
    """Deployed TPC-H tenants through abrupt-drift streams, replay racing on."""
    import numpy as np
    from repro.core import LOCAT
    from repro.core.online import OnlineController
    from repro.sparksim import get_application
    from repro.sparksim.cluster import get_cluster
    from repro.sparksim.scenarios import DriftingSimulator, ScenarioStream
    from repro.sparksim.serialize import config_to_dict

    cluster = get_cluster(CLUSTER)
    if ctx.tiny:
        benchmark, budgets, n_steps, n_streams = "aggregation", SMALL_TUNER, 16, 2
    else:
        benchmark, budgets, n_steps = "tpch", {}, 30
        deploys_s = ROUNDS * DRIFT_TENANTS * DRIFT_DEPLOY_S
        n_streams = max(DRIFT_TENANTS,
                        round((ctx.seconds - deploys_s) / (ROUNDS * DRIFT_STREAM_S)))
    app = get_application(benchmark)

    # Set-up: deploy the fixed tenants; every stream replays a copy of
    # one, so a stream pays only its own drift retune.  Tenant k serves
    # a contiguous block of streams and is deployed (again) just before
    # its block in each round.
    def tenant(index: int) -> int:
        return index * DRIFT_TENANTS // n_streams

    templates: dict[int, bytes] = {}
    setups, deployed = [], {}

    def deploy(k: int) -> None:
        with ctx.unmeasured():
            start = time.perf_counter()
            locat = LOCAT(DriftingSimulator(cluster), app, rng=(DRIFT_TENANT_SEED, k),
                          replay_eval="race", **budgets)
            # The stream records the replay trace itself (real rng keys
            # plus the drifted environment per step).
            controller = OnlineController(locat, capture_replay_trace=False)
            controller.observe(DATASIZE_GB)
            setups.append(time.perf_counter() - start)
        fingerprint = (locat.objective.n_evaluations,
                       sorted(config_to_dict(controller.deployed_config).items()))
        check(deployed.setdefault(k, fingerprint) == fingerprint,
              f"tenant {k}: a repeated seeded deployment deployed another configuration")
        templates[k] = pickle.dumps(controller)

    def stream(index: int) -> dict:
        controller = pickle.loads(templates[tenant(index)])
        locat = controller.locat
        rng = np.random.default_rng((ctx.seed, index))
        name = DRIFT_SCENARIOS[index % len(DRIFT_SCENARIOS)]
        scenario = _drift_scenario(name, n_steps, rng)
        runs = ScenarioStream(scenario, app, cluster, seed=ctx.seed * 10_000 + index,
                              trace=locat.replay_trace)
        out = {"retunes": [], "post_onset": []}
        for step in scenario.steps:
            locat.simulator.set_step(step)
            with ctx.span("bench.input"):
                measured = runs.measure(step, controller.deployed_config)
            if step.index >= scenario.onset:
                out["post_onset"].append(measured)
            before = locat.objective.n_evaluations
            start = time.perf_counter()
            decision = controller.observe(step.datasize_gb, duration_s=measured)
            wall = time.perf_counter() - start
            if decision.retuned:
                check(decision.trigger == "drift",
                      f"stream {index}: unexpected {decision.trigger!r} retune")
                replay = decision.result.details.get("replay")
                check(replay is not None and replay["enabled"],
                      f"stream {index}: the retune did not score candidates on replays")
                out["retunes"].append({
                    "wall_s": wall,
                    "evals": locat.objective.n_evaluations - before,
                    "overhead_s": decision.result.overhead_s,
                    "replay": replay,
                })
        return out

    def outputs(out: dict) -> tuple:
        return ([(r["evals"], r["overhead_s"]) for r in out["retunes"]], out["post_onset"])

    deploy(tenant(0))
    warm = stream(0)  # untimed warm-up; stream 0 repeats it
    ctx.start_measuring()
    speed = HostSpeed()
    rounds: list[list[dict]] = []
    for r in range(ROUNDS):
        rounds.append([])
        for index in range(n_streams):
            k = tenant(index)
            if (index == 0 or tenant(index - 1) != k) and (r, index) != (0, 0):
                deploy(k)
            speed.sample()
            with ctx.span("bench.op"):
                rounds[r].append(stream(index))
    streams = rounds[0]
    for index in range(n_streams):
        check(len({repr(outputs(rounds[r][index])) for r in range(ROUNDS)}
                  | ({repr(outputs(warm))} if index == 0 else set())) == 1,
              f"stream {index}: a repeated seeded stream gave different retunes or durations")
    retunes = [r for s in streams for r in s["retunes"]]
    check(bool(retunes), "no stream fired a drift retune")
    # Each retune's time is the fastest of its runs, one per round.
    walls = [min(run[index]["retunes"][j]["wall_s"] for run in rounds)
             for index in range(n_streams) for j in range(len(streams[index]["retunes"]))]
    replays = [r["replay"] for r in retunes]
    hits = sum(r["cache_hits"] for r in replays)
    misses = sum(r["cache_misses"] for r in replays)
    raw = {"op_s": sum(walls) / len(walls), "setup_s": mean(setups)}
    op_s = raw["op_s"] / speed.factor
    return Outcome(
        metrics={
            # The tenants' deployments are different work: total / count.
            "setup_s": raw["setup_s"] / speed.factor,
            "peak_rss_mb": peak_rss_mb(),
            "op_s": op_s,
            "evals_per_session": mean([r["evals"] for r in retunes]),
            "overhead_sim_s": geomean([r["overhead_s"] for r in retunes]),
            "tuned_sim_s": geomean([d for s in streams for d in s["post_onset"]]),
        },
        attempted=n_streams * ROUNDS,
        failed=0,
        layer_inputs={
            "ops": len(retunes) * ROUNDS,
            "op_s": op_s,
            "replay.sim_runs": sum(r["sim_runs"] for r in replays) / len(retunes),
            "replay.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        },
        summary={"streams": n_streams, "rounds": ROUNDS, "retunes": len(retunes),
                 "raw": raw, "host_factor": speed.factor,
                 "retune_walls_s": [[r["wall_s"] for s in run for r in s["retunes"]]
                                    for run in rounds],
                 "setups_s": setups},
    )


# ----------------------------------------------------------------------
# observe_http
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro serve`` in a child process, started and stopped by us."""

    def __init__(self, ctx: Context, store: Path, stats: Path):
        self.stats_path = stats
        self.proc = subprocess.Popen(
            [sys.executable, "-u", str(HERE / "server.py"), "--src", str(ctx.src),
             "--store", str(store), "--stats", str(stats),
             "--trace", "1" if ctx.tracer is not None else "0"],
            stdout=subprocess.PIPE, text=True, cwd=str(ctx.work),
        )
        self.url = self._await_url(deadline=time.monotonic() + 60.0)

    def _await_url(self, deadline: float) -> str:
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("tuning service listening on "):
                    return line.split()[4]
        self.stop()
        raise CheckFailed("the tuning service did not start")

    def stop(self) -> dict:
        """Shut down cleanly (SIGTERM), wait, and return the exit stats."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        if not self.stats_path.exists():
            return {}
        return json.loads(self.stats_path.read_text())


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def observe_http(ctx: Context) -> Outcome:
    """Closed-loop observes and reads against ``repro serve``."""
    from repro.service import ServiceError, TuningClient
    from repro.sparksim import get_application
    from repro.sparksim.cluster import get_cluster
    from repro.sparksim.scenarios import ScenarioStream, stable
    from repro.sparksim.serialize import config_from_dict

    n_tenants = 3 if ctx.tiny else HTTP_TENANTS
    apps = HTTP_APPS[2:] if ctx.tiny else HTTP_APPS
    store = ctx.work / "store"
    store.mkdir(parents=True)
    launched = time.perf_counter()
    server = ServerProcess(ctx, store, ctx.work / "server-stats.json")
    server_start_s = time.perf_counter() - launched
    try:
        admin = TuningClient(server.url, timeout=120.0)
        tenants: dict[str, dict] = {}
        setups = []
        for i in range(n_tenants):
            start = time.perf_counter()
            benchmark = apps[i % len(apps)]
            app_id = f"t{i:02d}-{benchmark}"
            admin.register_app(app_id, benchmark, cluster=CLUSTER,
                               seed=ctx.seed * 100 + i, tuner=SMALL_TUNER)
            admin.observe(app_id, DATASIZE_GB)  # first deployment
            config = config_from_dict(admin.config(app_id)["parameters"])
            runs = ScenarioStream(
                stable(n_steps=HTTP_DURATIONS, datasize_gb=DATASIZE_GB),
                get_application(benchmark), get_cluster(CLUSTER),
                seed=ctx.seed * 100 + i,
            )
            durations = [runs.measure(step, config) for step in runs.scenario.steps]
            status = admin.app(app_id)
            setups.append(time.perf_counter() - start)
            tenants[app_id] = {
                "durations": durations,
                "evaluations": status["evaluations"],
                "overhead_s": status["overhead_hours"] * 3600.0,
                "retunes": status["retunes"],
                "acked": 0,
                "unanswered": 0,
            }
        ids = sorted(tenants)
        acked_lock = threading.Lock()

        # Untimed warm-up: one observe and one config read.
        warm_id = ids[0]
        admin.observe(warm_id, DATASIZE_GB, tenants[warm_id]["durations"][0])
        tenants[warm_id]["acked"] += 1
        admin.config(warm_id)
        bytes_before = _dir_bytes(store)
        ctx.start_measuring()

        samples: list[list[dict]] = [[] for _ in range(HTTP_CONNECTIONS)]
        phase_start = time.perf_counter()
        stop_at = phase_start + (1.0 if ctx.tiny else float(ctx.seconds))

        def connection(k: int) -> None:
            rng = random.Random(ctx.seed * 10 + k)
            cursor = dict.fromkeys(ids, 0)
            out = samples[k]
            with TuningClient(server.url, timeout=30.0) as client:
                while time.perf_counter() < stop_at:
                    app_id = ids[rng.randrange(len(ids))]
                    reading = rng.random() < HTTP_READ_SHARE
                    kind = ("history" if rng.random() < 0.5 else "config") if reading else "observe"
                    if kind == "observe":
                        seq = cursor[app_id]
                        cursor[app_id] += 1
                        durations = tenants[app_id]["durations"]
                        duration = durations[(seq * HTTP_CONNECTIONS + k) % len(durations)]
                    sample = {"kind": kind, "app_id": app_id, "ok": False}
                    with ctx.span(f"client.{kind}") as record:
                        start = time.perf_counter()
                        try:
                            if kind == "observe":
                                job = client.observe(app_id, DATASIZE_GB, duration)
                            elif kind == "history":
                                job = client.history(app_id, limit=HTTP_HISTORY_LIMIT)
                            else:
                                job = client.config(app_id)
                        except (ServiceError, OSError) as exc:  # timeouts are OSErrors
                            sample["error"] = repr(exc)
                        else:
                            sample["ok"] = True
                            sample["response"] = job
                            if record is not None and kind == "observe":
                                record[5] = job["job_id"]  # the server's request id
                        sample["rtt"] = time.perf_counter() - start
                    out.append(sample)
                    if kind == "observe":
                        with acked_lock:
                            tenants[app_id]["acked" if sample["ok"] else "unanswered"] += 1

        threads = [threading.Thread(target=connection, args=(k,)) for k in range(HTTP_CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase_end = time.perf_counter()
        bytes_after = _dir_bytes(store)
        retunes_after = {app_id: admin.app(app_id)["retunes"] for app_id in ids}
        admin.close()
    finally:
        stats = server.stop()
    check("peak_rss_mb" in stats, "the tuning service did not shut down cleanly")

    all_samples = [s for out in samples for s in out]
    observes = [s for s in all_samples if s["kind"] == "observe"]
    acked = [s for s in observes if s["ok"]]
    reads = [s for s in all_samples if s["kind"] != "observe" and s["ok"]]
    failed = sum(1 for s in all_samples if not s["ok"])
    check(bool(acked), "no observe was acknowledged")
    # The stable stream never changes datasize, so the only retune an
    # observe may trigger is a drift false alarm: Page-Hinkley has a
    # finite run length to false alarm, about one per 10^4 observes here.
    retuned: dict[str, int] = {}
    for s in acked:
        response = s["response"]
        check(response["status"] == "done", f"observe on {s['app_id']} did not finish")
        if response["decision"]["retuned"]:
            check(response["decision"]["trigger"] == "drift",
                  f"observe on {s['app_id']} retuned: {response['decision']['reason']}")
            retuned[s["app_id"]] = retuned.get(s["app_id"], 0) + 1
    for app_id in ids:
        check(retunes_after[app_id] - tenants[app_id]["retunes"] == retuned.get(app_id, 0),
              f"{app_id}: the retune count disagrees with the decisions returned")
        rows = [json.loads(line) for line in
                (store / app_id / "runs.jsonl").read_text().splitlines() if line.strip()]
        production = sum(1 for row in rows if row["source"] == "production")
        # An observe that failed on the wire may still have landed.
        tenant = tenants[app_id]
        check(tenant["acked"] <= production <= tenant["acked"] + tenant["unanswered"],
              f"{app_id}: {tenant['acked']} acknowledged observes but "
              f"{production} production rows after shutdown")

    rtts = [s["rtt"] for s in acked]
    jobs = [s["response"] for s in acked]
    observe_tail = tail([r * 1000.0 for r in rtts])
    queue_ms = [(j["started_at"] - j["submitted_at"]) * 1000.0 for j in jobs]
    queue_tail = tail(queue_ms)
    history = [s for s in reads if s["kind"] == "history"]
    rows_returned = sum(s["response"]["count"] for s in history)
    layer_inputs = {
        "ops": len(acked),
        "op_s": sum(rtts) / len(rtts),
        "window": (phase_start, phase_end),
        "http.transport_ms": median(
            [(s["rtt"] - (j["finished_at"] - j["submitted_at"])) * 1000.0
             for s, j in zip(acked, jobs)]),
        "http.observe_p50_ms": median(rtts) * 1000.0,
        "http.observe_tail_ms": observe_tail["value"] if observe_tail else 0.0,
        "http.read_p50_ms": median([s["rtt"] * 1000.0 for s in reads]),
        "scheduler.queue_ms": median(queue_ms),
        "scheduler.queue_tail_ms": queue_tail["value"] if queue_tail else 0.0,
        "scheduler.run_ms": median(
            [(j["finished_at"] - j["started_at"]) * 1000.0 for j in jobs]),
        "store.bytes_per_observe": (bytes_after - bytes_before) / len(acked),
        "rows_returned": rows_returned,
    }
    trace = stats.get("trace")
    shutil.rmtree(store, ignore_errors=True)
    return Outcome(
        metrics={
            # Tenants of different applications are different work.
            "setup_s": mean(setups),
            "peak_rss_mb": stats["peak_rss_mb"],
            "op_s": sum(rtts) / len(rtts),
            "evals_per_session": mean([t["evaluations"] for t in tenants.values()]),
            "overhead_sim_s": geomean([t["overhead_s"] for t in tenants.values()]),
            "tuned_sim_s": geomean([mean(t["durations"]) for t in tenants.values()]),
        },
        attempted=len(all_samples),
        failed=failed,
        layer_inputs=layer_inputs,
        foreign=[trace] if trace else [],
        summary={
            "server_start_s": server_start_s,
            "drift_false_alarms": sum(retuned.values()),
            "observes": len(acked),
            "observes_per_s": len(acked) / (phase_end - phase_start),
            "reads": len(reads),
            "observe_p50_ms": median(rtts) * 1000.0,
            "observe_tail_ms": observe_tail,
            "read_p50_ms": median([s["rtt"] * 1000.0 for s in reads]),
            "server_job_p50_ms": median(
                [(j["finished_at"] - j["submitted_at"]) * 1000.0 for j in jobs]),
            # Means add up: transport + queue + run is the mean round trip.
            "round_trip_mean_ms": {
                "transport": mean([(s["rtt"] - (j["finished_at"] - j["submitted_at"])) * 1000.0
                                   for s, j in zip(acked, jobs)]),
                "queue": mean(queue_ms),
                "run": mean([(j["finished_at"] - j["started_at"]) * 1000.0 for j in jobs]),
            },
        },
    )


WORKLOADS = {
    "cold_tune": cold_tune,
    "drift_race": drift_race,
    "observe_http": observe_http,
}


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------
def measured_spans(outcome: Outcome, tracer) -> list[dict]:
    """Spans of the measured phase, as dicts.

    Local spans count when they lie under a timed operation (a
    ``bench.op`` or ``client.*`` span) and not under benchmark-side
    input generation (``bench.input``); server spans count when they
    started inside the measured window.
    """
    local = tracer.dump()
    records = {
        ("bench", s[0]): dict(zip(SPAN_FIELDS, s), process="bench") for s in local["spans"]
    }
    verdict: dict = {}

    def measured(key) -> bool:
        if key not in verdict:
            span = records[key]
            parent = span["parent"]
            if span["name"] == "bench.input":
                verdict[key] = False
            elif span["name"] == "bench.op" or span["name"].startswith("client."):
                verdict[key] = True
            elif parent is None or ("bench", parent) not in records:
                verdict[key] = False
            else:
                verdict[key] = measured(("bench", parent))
        return verdict[key]

    kept = [span for key, span in records.items() if measured(key)]
    window = outcome.layer_inputs.get("window")
    for dump in outcome.foreign:
        for s in dump["spans"]:
            span = dict(zip(SPAN_FIELDS, s), process=dump["process"])
            if window is not None and window[0] <= span["start"] <= window[1]:
                kept.append(span)
    return kept


def measured_counts(outcome: Outcome, tracer) -> dict:
    """Counters of the measured phase: this process's restart with it
    (set-up inside it is left out), the server's are cut to the
    measured window from its timestamped count log."""
    counts = dict(tracer.counts)
    window = outcome.layer_inputs.get("window")
    for dump in outcome.foreign:
        for at, key, n in dump.get("count_log") or []:
            if window is not None and window[0] <= at <= window[1]:
                counts[key] = counts.get(key, 0) + n
    return counts


def layer_metrics(outcome: Outcome, tracer, spans: list[dict]) -> dict:
    """Per-layer metrics of a traced run, per measured operation."""
    inputs = outcome.layer_inputs
    ops = max(int(inputs["ops"]), 1)
    counts = measured_counts(outcome, tracer)
    by_name: dict[str, list[float]] = {}
    values: dict[str, int] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span["end"] - span["start"])
        values[span["name"]] = values.get(span["name"], 0) + (span["value"] or 0)

    def busy(*names: str) -> float:
        return sum(sum(by_name.get(n, [])) for n in names) / ops

    def calls(name: str) -> float:
        return len(by_name.get(name, [])) / ops

    def ms_per_call(name: str) -> float:
        return mean(by_name.get(name, [])) * 1000.0

    def p50_ms(name: str) -> float:
        return median(by_name.get(name, [])) * 1000.0

    hits, misses = counts.get("lml_cache.hits", 0), counts.get("lml_cache.misses", 0)
    entrants = counts.get("race.entrants", 0)
    returned = inputs.get("rows_returned", 0)
    metrics = {
        "sparksim.runs": calls("sparksim.run"),
        "sparksim.ms_per_run": ms_per_call("sparksim.run"),
        "qcsa.busy_s": busy("qcsa.analyze"),
        "iicp.busy_s": busy("iicp.cps", "iicp.cpe"),
        "dagp.fit.calls": calls("dagp.fit"),
        "dagp.fit.ms_per_call": ms_per_call("dagp.fit"),
        "dagp.extend.calls": calls("dagp.extend"),
        "dagp.extend.ms_per_call": ms_per_call("dagp.extend"),
        "mcmc.busy_s": busy("mcmc.chain"),
        "mcmc.lml_evals": counts.get("mcmc.lml_evals", 0) / ops,
        "lml_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "acq.busy_s": busy("acq.maximize"),
        "acq.points_scored": counts.get("acq.points_scored", 0) / ops,
        "replay.sim_runs": inputs.get("replay.sim_runs", 0.0),
        "replay.cache_hit_rate": inputs.get("replay.cache_hit_rate", 0.0),
        "race.busy_s": busy("race.run"),
        "race.survivors_per_entrant": counts.get("race.survivors", 0) / entrants if entrants else 0.0,
        "online.decide_ms": p50_ms("online.decide"),
        "online.predict_ms": p50_ms("online.predict"),
        "adapt.busy_s": busy("adapt.session"),
        "registry.observe_ms": p50_ms("registry.observe"),
        "store.append_ms": p50_ms("store.append"),
        "store.save_deployment_ms": p50_ms("store.save_deployment"),
        "store.fsyncs_per_observe": calls("store.fsync"),
        "store.read_ms": p50_ms("store.read"),
        "store.rows_parsed_per_row_returned":
            values.get("store.read", 0) / returned if returned else 0.0,
        "trace.op_s": inputs["op_s"],
        "trace.spans_per_op": len(spans) / ops,
    }
    for key in PER_LAYER:
        if key not in metrics:
            metrics[key] = float(inputs.get(key, 0.0))
    for layer, seconds in self_times(spans).items():
        if layer in SELF_LAYERS:
            metrics[f"{layer}.self_s"] = seconds / ops
    return metrics


def _covered(spans: list[dict]) -> dict:
    """Seconds of each span covered by its direct children (children
    nest inside their parent on one thread)."""
    covered: dict = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span["process"], span["parent"])
            covered[key] = covered.get(key, 0.0) + span["end"] - span["start"]
    return covered


def self_times(spans: list[dict]) -> dict[str, float]:
    """Each layer's self time: its spans' durations minus the part of
    them their child spans cover."""
    covered = _covered(spans)
    totals: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - covered.get((span["process"], span["id"]), 0.0)
        layer = span["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def top_spans(spans: list[dict], k: int = 5) -> list[dict]:
    """The ``k`` span names with the most self time.

    The client's round-trip spans (``client.*``) are left out: the
    server work they wait on is in another process, so their "self"
    time is the whole round trip; ``http.transport_ms`` and the
    scheduler metrics split it instead.
    """
    covered = _covered(spans)
    rows: dict[str, dict] = {}
    for span in spans:
        if span["name"].startswith("client."):
            continue
        row = rows.setdefault(span["name"], {"name": span["name"], "calls": 0,
                                             "total_s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered.get((span["process"], span["id"]), 0.0)
    return sorted(rows.values(), key=lambda r: -r["self_s"])[:k]


__all__ = [
    "END_TO_END", "PER_LAYER", "WORKLOADS", "CheckFailed", "Context",
    "layer_metrics", "measured_counts", "measured_spans", "self_times", "top_spans",
]
