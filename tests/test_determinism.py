"""Cross-process determinism of a pinned LOCAT trajectory.

In-process reruns share one interpreter and so cannot catch
hash-randomization bugs: any code path that iterates a ``set`` (or
relies on dict-ordering built from one) to pick samples, parameters, or
tie-breaks produces different trajectories in different *processes*
even with every RNG pinned.  This test runs the same short
tune-observe-shadow trajectory in fresh subprocesses under three
``PYTHONHASHSEED`` values and requires byte-identical canonical output:
the run table, the deployed configuration, and the promotion records.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The pinned trajectory: a cold tune, a drift alarm, and one full
#: shadow A/B cycle, with every observable serialized canonically.
TRAJECTORY = """
import json

from repro.core import LOCAT
from repro.core.online import OnlineController
from repro.sparksim import SparkSQLSimulator, get_application
from repro.sparksim.cluster import get_cluster
from repro.sparksim.serialize import config_to_dict

simulator = SparkSQLSimulator(get_cluster("x86"))
locat = LOCAT(
    simulator, get_application("join"), rng=5,
    n_qcsa=6, n_iicp=6, max_iterations=3, min_iterations=2, n_mcmc=0,
)
controller = OnlineController(locat, shadow_runs=2)
controller.observe(100.0)
base = simulator.run(locat.app, controller.deployed_config, 100.0, rng=0).duration_s
reasons = []
for k in range(8):
    slow = 3.0 if k < 2 else 1.0
    decision = controller.observe(100.0, duration_s=base * slow)
    reasons.append([decision.retuned, decision.reason])
payload = {
    "run_table": [
        [config_to_dict(config), datasize, duration]
        for config, datasize, duration in locat.observation_history
    ],
    "deployed": config_to_dict(controller.deployed_config),
    "decisions": reasons,
    "promotion_events": controller.drain_promotion_events(),
    "promotion_status": controller.promotion_status(),
}
print(json.dumps(payload, sort_keys=True))
"""


def run_trajectory(hash_seed: int) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", TRAJECTORY],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, (
        f"trajectory crashed under PYTHONHASHSEED={hash_seed}:\n{result.stderr}"
    )
    return result.stdout


def test_trajectory_is_hashseed_invariant():
    outputs = {seed: run_trajectory(seed) for seed in (0, 1, 2)}
    baseline = outputs[0]
    # The trajectory must have actually exercised the tuner and the
    # promotion gate, or invariance would be vacuous.
    payload = json.loads(baseline)
    assert payload["run_table"], "trajectory produced no observations"
    assert any(retuned for retuned, _ in payload["decisions"])
    for seed in (1, 2):
        assert outputs[seed] == baseline, (
            f"trajectory diverged between PYTHONHASHSEED=0 and "
            f"PYTHONHASHSEED={seed}"
        )
