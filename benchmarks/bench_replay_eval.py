"""Replay-based candidate evaluation: eval budget and variance at retune.

A drift-triggered partial retune normally pays for every candidate with
a live reduced-suite run — roughly 17 simulator evaluations per retune
under the reduced session budgets below.  With ``replay_eval="race"``
the tenant's production trace is captured as it streams in, every
candidate is scored on the *same* common-random-number replays of that
trace, and a successive-halving race eliminates the losers — so the
only live evaluations left are the incumbent anchor and the winner's
validation run.

This benchmark drives the :class:`~repro.core.online.OnlineController`
through the abrupt-drift scenarios of :mod:`repro.sparksim.scenarios`
once per mode and scores:

* **evaluations per retune** — live objective evaluations a
  drift-triggered retune pays (the paper's overhead currency);
* **deployed regret** — mean measured production duration after drift
  onset (a cheaper retune must not deploy worse configurations);
* **wall-clock per retune** — end-to-end time of the retuning observe;
  a full run repeats the suite :data:`N_WALL_RUNS` times and reports
  the median and range of the per-run means, since one run's three
  retunes spread too widely to compare modes;
* **variance-reduction factor** — Var of independent-draw log-deltas
  over Var of CRN paired log-deltas for a fixed config pair, measured
  directly on the simulator (the statistical reason racing can discard
  candidates after a handful of replays).

Expected shape: race mode cuts evaluations per retune from ~17 to
single digits at equal-or-better deployed regret, and CRN pairing
reduces comparison variance by well over 2x.
"""

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

# One BLAS thread, set before numpy is imported: on a small host BLAS
# threads contend with each other and inflate the wall figures.  A value
# the caller sets explicitly still wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from repro.core import LOCAT
from repro.core.online import OnlineController
from repro.sparksim import SparkSQLSimulator, get_application
from repro.sparksim.cluster import get_cluster
from repro.sparksim.scenarios import (
    DriftingSimulator,
    Scenario,
    ScenarioStream,
    abrupt_skew_drift,
    cluster_degradation,
    node_loss,
)

#: Reduced session budgets, matching bench_online_drift so the off-mode
#: partial-retune cost lands on the documented ~17-eval baseline.
TUNER = {"n_qcsa": 10, "n_iicp": 8, "max_iterations": 6, "min_iterations": 3, "n_mcmc": 0}

MODES = ("off", "race")

#: Abrupt-drift scenarios — each reliably fires a partial retune.
SCENARIOS = ("abrupt_skew", "degradation", "node_loss")


def make_scenario(name: str, n_steps: int, onset: int | None = None) -> Scenario:
    builders = {
        "abrupt_skew": abrupt_skew_drift,
        "degradation": cluster_degradation,
        "node_loss": node_loss,
    }
    if onset is not None:
        return builders[name](n_steps=n_steps, onset=onset)
    return builders[name](n_steps=n_steps)


def drive(
    scenario: Scenario,
    mode: str,
    seed: int = 7,
    benchmark: str = "aggregation",
    cluster_name: str = "x86",
) -> dict:
    """One controller through one scenario; returns the score card."""
    cluster = get_cluster(cluster_name)
    app = get_application(benchmark)
    simulator = DriftingSimulator(cluster)
    locat = LOCAT(simulator, app, rng=seed, replay_eval=mode, **TUNER)
    controller = OnlineController(
        locat,
        # The scenario stream records the trace itself (real rng keys
        # plus the drifted environment per step) — recording again at
        # observe() would duplicate every production run.
        capture_replay_trace=False,
    )
    stream = ScenarioStream(
        scenario, app, cluster, seed=seed + 1000,
        trace=locat.replay_trace if mode == "race" else None,
    )

    controller.observe(scenario.steps[0].datasize_gb)  # initial deployment
    initial_evals = locat.objective.n_evaluations
    drift_retunes: list[dict] = []
    post_onset: list[float] = []
    for step in scenario.steps:
        simulator.set_step(step)
        measured = stream.measure(step, controller.deployed_config)
        if scenario.onset is not None and step.index >= scenario.onset:
            post_onset.append(measured)
        before = locat.objective.n_evaluations
        t0 = time.perf_counter()
        decision = controller.observe(step.datasize_gb, duration_s=measured)
        wall_s = time.perf_counter() - t0
        if decision.retuned and decision.trigger == "drift":
            replay = (decision.result.details or {}).get("replay")
            drift_retunes.append(
                {
                    "step": step.index,
                    "evals": locat.objective.n_evaluations - before,
                    "wall_s": wall_s,
                    "replay": replay,
                }
            )

    return {
        "scenario": scenario.name,
        "mode": mode,
        "onset": scenario.onset,
        "drift_retunes": drift_retunes,
        "initial_evals": initial_evals,
        "adaptation_evals": locat.objective.n_evaluations - initial_evals,
        "deployed_regret_s": statistics.mean(post_onset) if post_onset else None,
    }


def variance_reduction(
    n_pairs: int = 40, seed: int = 11, benchmark: str = "aggregation",
    datasize_gb: float = 100.0,
) -> dict:
    """Var(independent log-deltas) / Var(CRN paired log-deltas).

    Measured directly on the simulator for a fixed pair of
    configurations: the default and a shuffle/memory perturbation of
    it.  Under common random numbers both arms see the same per-query
    noise draws, so the environment noise cancels from the paired
    delta; independent draws keep both arms' noise in the difference.
    """
    simulator = SparkSQLSimulator(get_cluster("x86"), noise=0.04)
    app = get_application(benchmark)
    baseline = simulator.space.default()
    challenger = baseline.replace(
        **{
            "sql.shuffle.partitions": 800,
            "executor.memory": max(2, int(baseline["executor.memory"]) // 2),
        }
    )

    crn, independent = [], []
    for k in range(n_pairs):
        b = simulator.run(app, baseline, datasize_gb, rng=(seed, k)).duration_s
        c = simulator.run(app, challenger, datasize_gb, rng=(seed, k)).duration_s
        crn.append(float(np.log(b) - np.log(c)))
        b = simulator.run(app, baseline, datasize_gb, rng=(seed, k, 0)).duration_s
        c = simulator.run(app, challenger, datasize_gb, rng=(seed, k, 1)).duration_s
        independent.append(float(np.log(b) - np.log(c)))
    var_crn = statistics.variance(crn)
    var_ind = statistics.variance(independent)
    return {
        "n_pairs": n_pairs,
        "var_independent": var_ind,
        "var_crn": var_crn,
        "factor": var_ind / var_crn if var_crn > 0 else float("inf"),
    }


def mean_retune_stat(results: list[dict], mode: str, key: str) -> float | None:
    values = [
        r[key]
        for result in results
        if result["mode"] == mode
        for r in result["drift_retunes"]
    ]
    return statistics.mean(values) if values else None


def summarize(results: list[dict], vrf: dict) -> dict:
    summary = {"modes": {}, "variance_reduction": vrf}
    for mode in MODES:
        regrets = [
            r["deployed_regret_s"] for r in results
            if r["mode"] == mode and r["deployed_regret_s"] is not None
        ]
        summary["modes"][mode] = {
            "evals_per_retune": mean_retune_stat(results, mode, "evals"),
            "wall_s_per_retune": mean_retune_stat(results, mode, "wall_s"),
            "deployed_regret_s": statistics.mean(regrets) if regrets else None,
            "n_drift_retunes": sum(
                len(r["drift_retunes"]) for r in results if r["mode"] == mode
            ),
        }
    return summary


#: Full-run repetitions behind ``wall_s_per_retune``.  The suite is
#: seeded, so every repetition repeats the evaluations and regret; only
#: the wall time varies.
N_WALL_RUNS = 6


def repeat_wall(runs: list[tuple[list[dict], dict]]) -> tuple[list[dict], dict]:
    """The first run's results, with each mode's ``wall_s_per_retune``
    replaced by the median of the runs' means, next to their range."""
    results, summary = runs[0]
    for mode in MODES:
        walls = [run_summary["modes"][mode]["wall_s_per_retune"] for _, run_summary in runs]
        summary["modes"][mode].update(
            wall_s_per_retune=statistics.median(walls),
            wall_s_per_retune_range=[min(walls), max(walls)],
            wall_s_per_retune_runs=walls,
        )
    return results, summary


def render(results: list[dict], summary: dict) -> str:
    lines = [
        "replay-based candidate evaluation: eval budget / regret / wall-clock",
        "-" * 76,
        f"{'scenario':14s} {'mode':5s} {'retunes':>7s} {'evals/retune':>12s} "
        f"{'regret s':>9s} {'wall s':>7s}",
    ]
    for r in results:
        n = len(r["drift_retunes"])
        evals = (
            "-" if n == 0
            else f"{statistics.mean(t['evals'] for t in r['drift_retunes']):.1f}"
        )
        wall = (
            "-" if n == 0
            else f"{statistics.mean(t['wall_s'] for t in r['drift_retunes']):.2f}"
        )
        regret = (
            "-" if r["deployed_regret_s"] is None
            else f"{r['deployed_regret_s']:.1f}"
        )
        lines.append(
            f"{r['scenario']:14s} {r['mode']:5s} {n:>7d} {evals:>12s} "
            f"{regret:>9s} {wall:>7s}"
        )
    vrf = summary["variance_reduction"]
    for mode in MODES:
        m = summary["modes"][mode]
        epr = "-" if m["evals_per_retune"] is None else f"{m['evals_per_retune']:.1f}"
        reg = "-" if m["deployed_regret_s"] is None else f"{m['deployed_regret_s']:.1f}"
        line = (
            f"overall {mode:5s}: {m['n_drift_retunes']} drift retunes, "
            f"{epr} evals/retune, regret {reg}s"
        )
        if "wall_s_per_retune_range" in m:
            low, high = m["wall_s_per_retune_range"]
            line += (
                f", wall {m['wall_s_per_retune']:.3f}s/retune "
                f"(median of {len(m['wall_s_per_retune_runs'])} runs, {low:.3f}-{high:.3f})"
            )
        lines.append(line)
    lines.append(
        f"CRN variance reduction: {vrf['factor']:.3g}x over independent draws "
        f"({vrf['n_pairs']} pairs)"
    )
    return "\n".join(lines)


#: Race-mode regret may trail off-mode by at most this factor — "equal
#: or better" with room for simulator noise on short streams.
REGRET_TOLERANCE = 1.05


def check(results: list[dict], summary: dict) -> list[str]:
    """The benchmark's claims; returns the list of violations."""
    failures = []
    off = summary["modes"]["off"]
    race = summary["modes"]["race"]
    if not race["n_drift_retunes"]:
        failures.append("race mode exercised no drift-triggered retunes")
        return failures
    if not off["n_drift_retunes"]:
        failures.append("off mode exercised no drift-triggered retunes")
        return failures
    if race["evals_per_retune"] > 9:
        failures.append(
            f"race mode paid {race['evals_per_retune']:.1f} live evaluations "
            f"per retune, above the single-digit budget of 9"
        )
    if race["evals_per_retune"] >= off["evals_per_retune"]:
        failures.append(
            f"race evals/retune {race['evals_per_retune']:.1f} not below "
            f"off-mode {off['evals_per_retune']:.1f}"
        )
    for scenario in {r["scenario"] for r in results}:
        r_off = next(
            (r for r in results
             if r["scenario"] == scenario and r["mode"] == "off"), None
        )
        r_race = next(
            (r for r in results
             if r["scenario"] == scenario and r["mode"] == "race"), None
        )
        if (
            r_off is None or r_race is None
            or r_off["deployed_regret_s"] is None
            or r_race["deployed_regret_s"] is None
        ):
            continue
        if r_race["deployed_regret_s"] > r_off["deployed_regret_s"] * REGRET_TOLERANCE:
            failures.append(
                f"race regret {r_race['deployed_regret_s']:.1f}s worse than "
                f"off {r_off['deployed_regret_s']:.1f}s on {scenario}"
            )
    race_retunes = [
        t for r in results if r["mode"] == "race" for t in r["drift_retunes"]
    ]
    if not any(t["replay"] and t["replay"].get("enabled") for t in race_retunes):
        failures.append("no race-mode retune actually engaged the replay path")
    if summary["variance_reduction"]["factor"] < 2.0:
        failures.append(
            f"CRN variance reduction "
            f"{summary['variance_reduction']['factor']:.2f}x below 2x"
        )
    return failures


def run_suite(
    n_steps: int = 30, seed: int = 7, scenarios: tuple[str, ...] = SCENARIOS,
    onset: int | None = None, n_vrf_pairs: int = 40,
) -> tuple[list[dict], dict]:
    results = [
        drive(make_scenario(name, n_steps, onset=onset), mode, seed=seed)
        for name in scenarios
        for mode in MODES
    ]
    summary = summarize(results, variance_reduction(n_pairs=n_vrf_pairs, seed=seed + 4))
    return results, summary


def test_replay_eval(run_once):
    results, summary = run_once(run_suite)
    print("\n" + render(results, summary))
    failures = check(results, summary)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="one abrupt scenario per mode on a short stream; verifies the "
        "trace-capture + replay-race pipeline end to end (for CI)",
    )
    parser.add_argument(
        "--output", default="BENCH_replay_eval.json",
        help="write the score card here (default: BENCH_replay_eval.json)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        results, summary = run_suite(
            n_steps=16, seed=3, scenarios=("degradation",), onset=6,
            n_vrf_pairs=20,
        )
    else:
        results, summary = repeat_wall([run_suite() for _ in range(N_WALL_RUNS)])

    print(render(results, summary))
    payload = {
        "benchmark": "replay_eval",
        "smoke": bool(args.smoke),
        "summary": summary,
        "results": results,
    }
    output = pathlib.Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    with output.open("w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.output}")

    failures = check(results, summary)
    if failures:
        print(
            ("smoke FAILED: " if args.smoke else "FAILED: ") + "; ".join(failures),
            file=sys.stderr,
        )
        return 1
    if args.smoke:
        print("smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
