"""Online drift adaptation: Page–Hinkley detection delay and cost.

The paper's deployment story (section 3.1) is an application running
repeatedly while its environment shifts under it.  This benchmark
drives the :class:`~repro.core.online.OnlineController` through the
dynamic workload scenarios of :mod:`repro.sparksim.scenarios` — abrupt
and gradual skew drift, cluster degradation, node loss, a datasize
random walk, and a drift-free control stream — and scores:

* **detection delay** — production runs between drift onset and the
  first drift-triggered retune (lower = less time spent running a stale
  configuration);
* **false triggers** — drift retunes fired with no drift present (each
  one burns a tuning session's worth of evaluations for nothing);
* **evaluation cost** — simulator runs spent on adaptation, and how a
  drift-triggered *partial* retune compares against a full cold
  session.

Expected shape: the Page–Hinkley detector over DAGP-standardized
residuals detects abrupt drift strictly faster than the fixed-window
ratio rule it replaced (it integrates evidence instead of waiting for
``patience`` consecutive over-factor runs), with zero false triggers;
it catches mild degradation the ratio rule was structurally blind to
(slowdowns below its 1.3 factor), and partial retunes re-anchor the
warm surrogate at a fraction of a cold session's evaluations.  The
ratio rule's delays are pinned below (:data:`RATIO_RULE_DELAYS`), as
measured on the last version that had it.
"""

import argparse
import sys

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
    datasize_random_walk,
    gradual_skew_drift,
    node_loss,
    stable,
)

#: Reduced session budgets so a dozen scenario runs stay benchmark-sized.
TUNER = {"n_qcsa": 10, "n_iicp": 8, "max_iterations": 6, "min_iterations": 3, "n_mcmc": 0}

#: Detection delays (production runs from drift onset to the first
#: drift retune) of the fixed-window ratio rule (1.3x factor, patience
#: 3) that Page–Hinkley replaced, per abrupt scenario, measured with
#: this file's seeds, budgets and streams on the last version that had
#: the rule.  None: the rule never fired within the stream.
RATIO_RULE_DELAYS = {"abrupt_skew": None, "degradation": 2, "node_loss": 2}

#: The same for the ``--smoke`` streams (seed 3, 16-run degradation).
RATIO_RULE_SMOKE_DELAYS = {"degradation": 2}

#: Drifts Page–Hinkley must detect within the stream wherever they are
#: run: besides node loss, the mild degradation and gradual skew drift
#: the ratio rule was structurally blind to below its 1.3 factor.
MUST_DETECT = ("gradual_skew", "degradation", "node_loss")


def drive(
    scenario: Scenario,
    seed: int = 7,
    benchmark: str = "aggregation",
    cluster_name: str = "x86",
    tuner: dict = TUNER,
) -> dict:
    """One controller through one scenario; returns the score card."""
    cluster = get_cluster(cluster_name)
    app = get_application(benchmark)
    # A drift-triggered retune must collect its samples from the
    # *drifted* environment (a real session runs on the degraded
    # cluster), so the tuner's simulator follows the scenario step.
    simulator = DriftingSimulator(cluster)
    locat = LOCAT(simulator, app, rng=seed, **tuner)
    controller = OnlineController(locat)
    stream = ScenarioStream(scenario, app, cluster, seed=seed + 1000)

    controller.observe(scenario.steps[0].datasize_gb)  # initial deployment
    initial_evals = locat.objective.n_evaluations
    drift_retunes: list[dict] = []
    n_datasize_retunes = 0
    for step in scenario.steps:
        simulator.set_step(step)
        measured = stream.measure(step, controller.deployed_config)
        before = locat.objective.n_evaluations
        decision = controller.observe(step.datasize_gb, duration_s=measured)
        if decision.retuned and decision.trigger == "drift":
            drift_retunes.append(
                {"step": step.index,
                 "evals": locat.objective.n_evaluations - before}
            )
        elif decision.retuned:
            n_datasize_retunes += 1

    onset = scenario.onset
    detected = [r["step"] for r in drift_retunes if onset is not None and r["step"] >= onset]
    false_triggers = sum(
        1 for r in drift_retunes if onset is None or r["step"] < onset
    )
    return {
        "scenario": scenario.name,
        "onset": onset,
        "delay": (detected[0] - onset) if detected else None,
        "false_triggers": false_triggers,
        "drift_retunes": drift_retunes,
        "datasize_retunes": n_datasize_retunes,
        "initial_evals": initial_evals,
        "adaptation_evals": locat.objective.n_evaluations - initial_evals,
    }


def cold_session_evals(
    benchmark: str = "aggregation", datasize_gb: float = 100.0, seed: int = 7,
    tuner: dict = TUNER,
) -> int:
    """Evaluations a full cold tuning session pays (the retune baseline)."""
    locat = LOCAT(
        SparkSQLSimulator(get_cluster("x86")), get_application(benchmark),
        rng=seed, **tuner,
    )
    return locat.tune(datasize_gb).evaluations


def scenario_suite(n_steps: int = 30, seed: int = 0) -> list[Scenario]:
    return [
        stable(n_steps=n_steps),
        datasize_random_walk(n_steps=n_steps, seed=seed),
        gradual_skew_drift(n_steps=n_steps),
        abrupt_skew_drift(n_steps=n_steps),
        cluster_degradation(n_steps=n_steps),
        node_loss(n_steps=n_steps),
    ]


def partial_retune_evals(results: list[dict]) -> list[int]:
    """Evaluation costs of every drift-triggered (partial) retune."""
    return [r["evals"] for result in results for r in result["drift_retunes"]]


def render(results: list[dict], cold_evals: int) -> str:
    lines = [
        "online drift adaptation: detection delay / false triggers / eval cost",
        f"(full cold session baseline: {cold_evals} evaluations)",
        "-" * 76,
        f"{'scenario':16s} {'onset':>5s} {'delay':>5s} {'ratio':>5s} "
        f"{'false':>5s} {'ds-retunes':>10s} {'adapt evals':>11s}",
    ]
    for r in results:
        onset = "-" if r["onset"] is None else str(r["onset"])
        delay = "-" if r["delay"] is None else str(r["delay"])
        if r["scenario"] not in RATIO_RULE_DELAYS:
            ratio = "-"
        else:
            pinned = RATIO_RULE_DELAYS[r["scenario"]]
            ratio = "miss" if pinned is None else str(pinned)
        lines.append(
            f"{r['scenario']:16s} {onset:>5s} {delay:>5s} {ratio:>5s} "
            f"{r['false_triggers']:>5d} {r['datasize_retunes']:>10d} "
            f"{r['adaptation_evals']:>11d}"
        )
    return "\n".join(lines)


def by_key(results: list[dict], scenario: str) -> dict | None:
    return next((r for r in results if r["scenario"] == scenario), None)


def check(
    results: list[dict],
    cold_evals: int,
    ratio_delays: dict = RATIO_RULE_DELAYS,
    strict_delay: bool = True,
) -> list[str]:
    """The benchmark's claims; returns the list of violations.

    Page–Hinkley must detect every drift in ``ratio_delays`` (the
    pinned ratio-rule delays) and in :data:`MUST_DETECT` that was run,
    strictly faster than the ratio rule where it fired
    (``strict_delay``; at or below it otherwise), and false-trigger on
    no scenario.
    """
    failures = []
    for scenario in dict.fromkeys([*ratio_delays, *MUST_DETECT]):
        r = by_key(results, scenario)
        if r is not None and r["delay"] is None:
            failures.append(f"Page-Hinkley missed the drift on {scenario}")
    for scenario, ratio_delay in ratio_delays.items():
        r = by_key(results, scenario)
        if r is None or r["delay"] is None or ratio_delay is None:
            continue
        if strict_delay and not r["delay"] < ratio_delay:
            failures.append(
                f"Page-Hinkley delay {r['delay']} not strictly below the ratio "
                f"rule's pinned {ratio_delay} on {scenario}"
            )
        elif not r["delay"] <= ratio_delay:
            failures.append(
                f"Page-Hinkley delay {r['delay']} above the ratio rule's pinned "
                f"{ratio_delay} on {scenario}"
            )
    for r in results:
        if r["false_triggers"] != 0:
            failures.append(
                f"Page-Hinkley false-triggered {r['false_triggers']} time(s) "
                f"on {r['scenario']}"
            )
    partials = partial_retune_evals(results)
    if partials and not max(partials) < cold_evals:
        failures.append(
            f"a partial retune cost {max(partials)} evaluations, "
            f"not below the cold session's {cold_evals}"
        )
    if not partials:
        failures.append("no drift-triggered partial retunes were exercised")
    return failures


def run_suite(n_steps: int = 30, seed: int = 7) -> tuple[list[dict], int]:
    results = [
        drive(scenario, seed=seed)
        for scenario in scenario_suite(n_steps=n_steps, seed=seed)
    ]
    return results, cold_session_evals(seed=seed)


def test_online_drift(run_once):
    results, cold_evals = run_once(run_suite)
    print("\n" + render(results, cold_evals))
    failures = check(results, cold_evals)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="abrupt-drift + control scenarios only, short streams; "
        "verifies the drift pipeline end to end (for CI)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        # Degradation, not skew, for the short smoke stream: an abrupt
        # environment drift with a strong signal detectable within a
        # dozen runs (the mild skew scenarios need a longer stream for
        # the sequential statistic to integrate).
        scenarios = [stable(n_steps=12), cluster_degradation(n_steps=16, onset=6)]
        results = [drive(scenario, seed=3) for scenario in scenarios]
        cold_evals = cold_session_evals(seed=3)
        print(render(results, cold_evals))
        failures = check(
            results, cold_evals, ratio_delays=RATIO_RULE_SMOKE_DELAYS,
            strict_delay=False,
        )
        if failures:
            print("smoke FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("smoke ok")
        return 0

    results, cold_evals = run_suite()
    print(render(results, cold_evals))
    failures = check(results, cold_evals)
    if failures:
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
