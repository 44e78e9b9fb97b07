"""Ablation: CPE latent dimensionality.

Sweeps the number of KPCA components LOCAT tunes over.  Too few
components cannot express good configurations; too many dilute the BO
budget.  The paper's ~1/3-of-original (8-15) sits in the productive
middle.
"""

from repro.core import LOCAT
from repro.harness.experiment import make_simulator
from repro.harness.report import format_table
from repro.sparksim import get_application


def run_ablation(seed: int = 5):
    app = get_application("join")
    out = {}
    for dims in (2, 6, 12):
        locat = LOCAT(make_simulator("x86"), app, rng=seed, max_iterations=15)
        # Fix the latent dimension by monkey-setting the cap policy.
        locat._latent_dim_cap = lambda n_selected, d=dims: d  # noqa: E731 - test probe
        result = locat.tune(300.0)
        out[dims] = {
            "best": result.best_duration_s,
            "overhead_h": result.overhead_hours,
            "n_components": locat.iicp_result.n_components,
        }
    return out


def test_ablation_kpca_dims(run_once):
    result = run_once(run_ablation)
    rows = [[dims, d["best"], d["overhead_h"]] for dims, d in result.items()]
    print("\n" + format_table(
        ["latent dims", "best (s)", "overhead (h)"],
        rows,
        title="Ablation: KPCA latent dimensionality (HiBench Join @ 300 GB)",
    ))

    # A 2-dimensional latent space must not beat the 12-dimensional one
    # by a wide margin (it cannot express the needed configurations).
    assert result[12]["best"] <= result[2]["best"] * 1.25
    # Each arm tuned the dimension it fixed.
    assert all(d["n_components"] == dims for dims, d in result.items())
    assert all(d["best"] > 0 for d in result.values())
