"""Ablation: DAGP's datasize-awareness.

Runs LOCAT twice through a growing-datasize sequence: once with DAGP
(observations transfer across datasizes) and once without (each
datasize starts from scratch within the latent space).  It asserts only
that DAGP's mean best duration over the sequence is within 1.35x of the
no-transfer run's; the adaptation overhead is printed, not checked.
Whether DAGP saves evaluations or overhead is not shown here: on seeds
5-10 its adaptation overhead was higher on 5 of 6 (``ROADMAP.md``
item 3).
"""

from repro.core import LOCAT
from repro.harness.experiment import make_simulator
from repro.harness.report import format_table
from repro.sparksim import get_application

DATASIZES = (100.0, 300.0, 500.0)


def run_ablation(seed: int = 5):
    app = get_application("join")
    out = {}
    for label, use_dagp in (("DAGP", True), ("no transfer", False)):
        locat = LOCAT(make_simulator("x86"), app, rng=seed, use_dagp=use_dagp,
                      max_iterations=15)
        sessions = [locat.tune(ds) for ds in DATASIZES]
        out[label] = {
            "durations": [s.best_duration_s for s in sessions],
            "adapt_overhead_h": sum(s.overhead_hours for s in sessions[1:]),
        }
    return out


def test_ablation_dagp(run_once):
    result = run_once(run_ablation)
    rows = [
        [label, *data["durations"], data["adapt_overhead_h"]]
        for label, data in result.items()
    ]
    print("\n" + format_table(
        ["variant", *(f"best@{d:.0f}GB (s)" for d in DATASIZES), "adaptation overhead (h)"],
        rows,
        title="Ablation: datasize-aware GP vs per-datasize tuning",
    ))

    import numpy as np

    dagp = result["DAGP"]
    blind = result["no transfer"]
    # Transfer does not hurt quality on average across the sequence...
    assert float(np.mean(dagp["durations"])) <= float(np.mean(blind["durations"])) * 1.35
    # ...and the final quality at the largest size is sane for both.
    assert all(d > 0 for d in dagp["durations"])
