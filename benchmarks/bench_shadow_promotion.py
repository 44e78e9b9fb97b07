"""Candidate promotion: the shadow A/B gate against immediate deployment.

After a retune, an immediate policy would deploy the session winner on
the spot — trusting measurements that, under a noisy environment, may
have crowned a worse configuration.  The controller's shadow gate
instead runs the challenger head-to-head against the incumbent on the
next production runs under common random numbers and only promotes on
a significant paired-bootstrap win.  The gate is the controller's only
promotion path; the immediate policy's counts on the same streams were
measured before it was deleted and are pinned below
(``IMMEDIATE_PINNED``).  This benchmark drives the gate through the
scenario streams and scores:

* **regression-deploy rate** — deployment changes that made production
  strictly *slower* under a noise-free ground-truth replay of the same
  step (the failure mode the gate exists to prevent);
* **promotion delay** — production runs between a shadow opening and
  its verdict (the price paid for the gate);
* **adaptation** — promotions / rejections / reconfirmations, so the
  gate is shown to still let genuinely better candidates through.

The adversarial ``noisy_retune`` scenario is a drift-free stream where
both the production measurements and the tuner's own evaluations are
very noisy, and the controller runs a deliberately over-sensitive
Page–Hinkley detector: it false-alarms, every retune fits noise, and the
immediate policy deployed 2 regressions in 6 deploys.  The shadow gate
measures each challenger under common random numbers — the shared noise
cancels in the paired deltas — and must deploy **zero** regressions, a
regression-deploy rate below the pinned immediate one.  On the
``degradation`` drift, where the immediate policy deployed a new
configuration, the gate must still adapt (promote or reconfirm a
retune's winner) rather than starve.

Results land in ``BENCH_shadow_promotion.json`` (same convention as
``BENCH_surrogate_scaling.json``), together with one sample
``winners.json``-style provenance record in ``winners.sample.json``.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.core import LOCAT, PageHinkleyDetector
from repro.core.online import OnlineController
from repro.sparksim import get_application
from repro.sparksim.cluster import get_cluster
from repro.sparksim.scenarios import (
    DriftingSimulator,
    Scenario,
    ScenarioStream,
    abrupt_skew_drift,
    cluster_degradation,
    stable,
)
from repro.sparksim.serialize import canonical_key

#: Reduced session budgets so a dozen scenario runs stay benchmark-sized.
TUNER = {"n_qcsa": 10, "n_iicp": 8, "max_iterations": 6, "min_iterations": 3, "n_mcmc": 0}

#: What the immediate policy (deploy every retune's winner at once) did
#: on these streams at their default seed, as ``(deploys, regressions)``
#: per scenario: the full 24-step run and the 18-step smoke.  Measured
#: with the same drive on the last version that still had the policy.
IMMEDIATE_PINNED = {
    "noisy_retune": (6, 2),
    "degradation": (1, 0),
    "abrupt_skew": (0, 0),
}
IMMEDIATE_PINNED_SMOKE = {
    "noisy_retune": (4, 1),
    "degradation": (1, 0),
}

#: A deploy is a regression when the new config is more than 1% slower
#: than the old one under the noise-free ground-truth replay (the 1%
#: dead band absorbs float jitter, not real slowdowns).
REGRESSION_TOL = 0.01

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_shadow_promotion.json"


def noisy_retune(n_steps: int = 24, datasize_gb: float = 100.0) -> Scenario:
    """The adversarial stream: drift-free, so every retune fits noise.

    The drive pairs it with high measurement noise on both the
    production stream and the tuner's simulator; the steps themselves
    are a flat baseline (any alarm is false, any deploy is gratuitous).
    """
    base = stable(n_steps=n_steps, datasize_gb=datasize_gb)
    return Scenario(
        name="noisy_retune",
        description="drift-free stream under heavy measurement noise; "
        "retunes chase noise and their winners must be gated",
        steps=base.steps,
    )


def sensitive_detector() -> PageHinkleyDetector:
    """A Page–Hinkley detector tuned to fire on noise: no drift
    allowance and a quarter of the default threshold, so retunes fire
    often and their winners are unreliable."""
    return PageHinkleyDetector(delta=0.0, threshold=1.0)


#: (scenario builder, tuner/simulator noise, production stream noise,
#:  drift detector factory — None for the default) per benchmark case.
#: The adversarial case cranks both noises and injects the over-
#: sensitive detector; the genuine-drift cases run at the default noise
#: and detector so the gate is also shown *adapting*.
CASES = {
    "noisy_retune": dict(
        scenario=noisy_retune,
        tuner_noise=0.5,
        stream_noise=0.35,
        detector=sensitive_detector,
    ),
    "degradation": dict(
        scenario=cluster_degradation,
        tuner_noise=0.04,
        stream_noise=0.04,
        detector=None,
    ),
    "abrupt_skew": dict(
        scenario=abrupt_skew_drift,
        tuner_noise=0.04,
        stream_noise=0.04,
        detector=None,
    ),
}


def drive(
    case: str,
    seed: int = 7,
    n_steps: int = 24,
    benchmark: str = "aggregation",
    cluster_name: str = "x86",
    shadow_runs: int = 4,
    tuner: dict = TUNER,
) -> dict:
    """One controller through one case; returns the score card."""
    spec = CASES[case]
    cluster = get_cluster(cluster_name)
    app = get_application(benchmark)
    scenario = spec["scenario"](n_steps=n_steps)
    # The tuner (and the shadow measurements) run under the scenario's
    # current environment at the case's tuner noise — a noisy retune is
    # noisy *because its evaluations are*, not by fiat.
    simulator = DriftingSimulator(cluster, noise=spec["tuner_noise"])
    locat = LOCAT(simulator, app, rng=seed, **tuner)
    controller = OnlineController(
        locat,
        detector=spec["detector"]() if spec["detector"] else None,
        shadow_runs=shadow_runs,
    )
    stream = ScenarioStream(
        scenario, app, cluster, noise=spec["stream_noise"], seed=seed + 1000
    )
    # Ground truth: the same environments, zero noise.  Scoring a deploy
    # here asks "was the new config actually faster at that step?"
    truth = ScenarioStream(scenario, app, cluster, noise=0.0, seed=seed + 2000)

    controller.observe(scenario.steps[0].datasize_gb)  # initial deployment
    deploys: list[dict] = []
    shadow_opened_at: dict[str, int] = {}
    delays: list[int] = []
    promoted = rejected = reconfirmed = shadow_pairs = 0
    for step in scenario.steps:
        simulator.set_step(step)
        incumbent = controller.deployed_config
        measured = stream.measure(step, incumbent)
        decision = controller.observe(step.datasize_gb, duration_s=measured)
        promo = decision.promotion or {}
        phase = promo.get("phase")
        if phase == "shadow_started":
            shadow_opened_at[promo["run_id"]] = step.index
        elif phase in ("shadow", "promoted", "rejected"):
            shadow_pairs += 1
        if phase in ("promoted", "rejected"):
            opened = shadow_opened_at.pop(promo["run_id"], step.index)
            delays.append(step.index - opened)
            promoted += phase == "promoted"
            rejected += phase == "rejected"
        elif phase == "reconfirmed":
            reconfirmed += 1
        if canonical_key(controller.deployed_config) != canonical_key(incumbent):
            old_s = truth.measure(step, incumbent)
            new_s = truth.measure(step, controller.deployed_config)
            deploys.append(
                {
                    "step": step.index,
                    "phase": phase,
                    "old_truth_s": round(old_s, 3),
                    "new_truth_s": round(new_s, 3),
                    "regression": new_s > old_s * (1.0 + REGRESSION_TOL),
                }
            )
    records = controller.drain_promotion_events()
    regressions = [d for d in deploys if d["regression"]]
    return {
        "scenario": scenario.name,
        "deploys": len(deploys),
        "regressions": len(regressions),
        "regression_rate": (len(regressions) / len(deploys)) if deploys else 0.0,
        "promoted": promoted,
        "rejected": rejected,
        "reconfirmed": reconfirmed,
        "open_shadow": controller.shadow_active,
        "shadow_pair_runs": 2 * shadow_pairs,
        "mean_promotion_delay": (sum(delays) / len(delays)) if delays else None,
        "deploy_log": deploys,
        "winner_records": records,
    }


def render(results: list[dict], pinned: dict) -> str:
    lines = [
        "candidate promotion: regression-deploy rate, shadow A/B gate "
        "(immediate policy pinned)",
        "-" * 78,
        f"{'scenario':14s} {'deploys':>7s} {'regress':>7s} {'rate':>6s} "
        f"{'prom':>4s} {'rej':>4s} {'reconf':>6s} {'delay':>6s} {'immediate':>10s}",
    ]
    for r in results:
        delay = "-" if r["mean_promotion_delay"] is None else f"{r['mean_promotion_delay']:.1f}"
        imm_deploys, imm_regressions = pinned[r["scenario"]]
        lines.append(
            f"{r['scenario']:14s} {r['deploys']:>7d} "
            f"{r['regressions']:>7d} {r['regression_rate']:>6.0%} "
            f"{r['promoted']:>4d} {r['rejected']:>4d} {r['reconfirmed']:>6d} {delay:>6s} "
            f"{imm_regressions:>4d}/{imm_deploys:<5d}"
        )
    return "\n".join(lines)


def by_scenario(results: list[dict], scenario: str) -> dict | None:
    return next((r for r in results if r["scenario"] == scenario), None)


def check(results: list[dict], pinned: dict) -> list[str]:
    """The benchmark's claims against the pinned immediate counts;
    returns the list of violations."""
    failures = []
    for r in results:
        if r["regressions"] != 0:
            failures.append(
                f"shadow gate deployed {r['regressions']} regression(s) on "
                f"{r['scenario']} — the gate's core guarantee"
            )
        n_verdicts = r["promoted"] + r["rejected"]
        if len(r["winner_records"]) != n_verdicts:
            failures.append(
                f"{r['scenario']}: {n_verdicts} verdicts but "
                f"{len(r['winner_records'])} provenance records"
            )
        for record in r["winner_records"]:
            ab = record.get("ab")
            if record["decision"] in ("promote", "reject") and ab is not None:
                if "ci_low" not in ab or "ci_high" not in ab:
                    failures.append(
                        f"{r['scenario']}: record {record['run_id']} lacks a CI"
                    )
    gated = by_scenario(results, "noisy_retune")
    imm_deploys, imm_regressions = pinned["noisy_retune"]
    if gated is not None and gated["regression_rate"] >= imm_regressions / imm_deploys:
        failures.append(
            "shadow gate did not beat the pinned immediate regression rate "
            f"({imm_regressions}/{imm_deploys}) on the adversarial stream"
        )
    for r in results:
        if r["scenario"] == "noisy_retune" or not pinned[r["scenario"]][0]:
            # No immediate deploys means the detector never fired under
            # this seed — nothing the gate could have starved.
            continue
        if r["promoted"] + r["reconfirmed"] == 0:
            failures.append(
                f"shadow gate starved adaptation on {r['scenario']}: the "
                "immediate policy deployed, the gate neither promoted nor "
                "reconfirmed a retune's winner"
            )
    return failures


def sample_winner_record(results: list[dict]) -> dict | None:
    """One full provenance record for the uploaded artifact."""
    for r in results:
        for record in r["winner_records"]:
            if record.get("ab") is not None:
                return record
    for r in results:
        if r["winner_records"]:
            return r["winner_records"][0]
    return None


def strip_logs(results: list[dict]) -> list[dict]:
    """Score cards without the per-deploy / per-record bulk."""
    slim = []
    for r in results:
        entry = dict(r)
        entry["winner_records"] = len(r["winner_records"])
        slim.append(entry)
    return slim


def write_artifacts(
    results: list[dict], pinned: dict, outdir: Path | None = None
) -> None:
    bench_path = BENCH_JSON if outdir is None else outdir / BENCH_JSON.name
    payload = {
        "benchmark": "shadow_promotion",
        "regression_tolerance": REGRESSION_TOL,
        "immediate_pinned": {
            scenario: {"deploys": deploys, "regressions": regressions}
            for scenario, (deploys, regressions) in pinned.items()
        },
        "results": strip_logs(results),
    }
    with open(bench_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {bench_path}")
    sample = sample_winner_record(results)
    if sample is not None:
        sample_path = bench_path.parent / "winners.sample.json"
        with open(sample_path, "w") as handle:
            json.dump({"winners": [sample]}, handle, indent=2)
            handle.write("\n")
        print(f"wrote {sample_path}")


def run_suite(n_steps: int = 24, seed: int = 7) -> list[dict]:
    return [drive(case, seed=seed, n_steps=n_steps) for case in CASES]


def test_shadow_promotion(run_once):
    results = run_once(run_suite, 24, 7)
    print("\n" + render(results, IMMEDIATE_PINNED))
    failures = check(results, IMMEDIATE_PINNED)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="adversarial + degradation cases only, short streams; "
        "asserts zero gate regressions, a rate below the pinned immediate "
        "one, and adaptation on degradation (for CI)",
    )
    parser.add_argument(
        "--outdir", default=None,
        help="where BENCH_shadow_promotion.json / winners.sample.json go "
        "(default: repository root)",
    )
    args = parser.parse_args(argv)
    outdir = None
    if args.outdir is not None:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)

    if args.smoke:
        results = [
            drive(case, seed=7, n_steps=18) for case in IMMEDIATE_PINNED_SMOKE
        ]
        print(render(results, IMMEDIATE_PINNED_SMOKE))
        write_artifacts(results, IMMEDIATE_PINNED_SMOKE, outdir)
        failures = check(results, IMMEDIATE_PINNED_SMOKE)
        if failures:
            print("smoke FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("smoke ok")
        return 0

    results = run_suite()
    print(render(results, IMMEDIATE_PINNED))
    write_artifacts(results, IMMEDIATE_PINNED, outdir)
    failures = check(results, IMMEDIATE_PINNED)
    if failures:
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
