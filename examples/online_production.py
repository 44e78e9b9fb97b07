"""Production-style online tuning with drift detection.

Simulates a month of nightly TPC-H runs whose input grows over time. The
OnlineController decides when LOCAT should (re)tune: the first night, at
large datasize jumps, and whenever measured durations drift above the
model's expectation. A retune's winner deploys only after a shadow A/B
test against the deployed configuration on the following nights; while
the test runs, new retunes wait. Between tuning sessions, production
runs reuse the deployed configuration at zero tuning cost.

    python examples/online_production.py
"""

from repro.core import LOCAT
from repro.core.export import diff_configs
from repro.core.online import OnlineController
from repro.harness.report import format_table
from repro.sparksim import SparkSQLSimulator, get_application, x86_cluster

#: Nightly input sizes (GB): slow growth, then a step change.
NIGHTLY_DATASIZES = [100, 105, 110, 118, 125, 135, 150, 290, 300, 310, 330, 350]


def main() -> None:
    app = get_application("tpch")
    simulator = SparkSQLSimulator(x86_cluster())
    locat = LOCAT(simulator, app, rng=11, max_iterations=15)
    controller = OnlineController(locat, datasize_margin=0.3)

    rows = []
    last_duration = None
    for night, datasize in enumerate(NIGHTLY_DATASIZES, start=1):
        decision = controller.observe(float(datasize), duration_s=last_duration)
        # "Run tonight's job" with the deployed configuration.
        last_duration = simulator.run(app, decision.config, float(datasize),
                                      rng=night).duration_s
        action = "RETUNE" if decision.retuned else "reuse"
        if decision.promotion is not None:
            action += f" ({decision.promotion['phase']})"
        rows.append([
            night,
            f"{datasize} GB",
            action,
            last_duration,
            decision.reason if decision.retuned or decision.promotion else "",
        ])

    print(format_table(
        ["night", "input", "action", "runtime (s)", "why"],
        rows,
        title="A month of nightly TPC-H runs under the online controller",
    ))

    print("\nFinal deployed configuration vs Spark defaults:")
    changed = diff_configs(simulator.space.default(), controller.deployed_config)
    for key, (before, after) in sorted(changed.items())[:12]:
        print(f"  {key:50s} {before:>8} -> {after:>8}")
    sessions = sum(1 for r in rows if r[2].startswith("RETUNE"))
    print(f"\nTuning sessions: {sessions} of {len(rows)} nights; every other "
          "night ran at zero tuning cost.")


if __name__ == "__main__":
    main()
