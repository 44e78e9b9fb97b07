"""Sweep the acquisition search's uniform rows over seeded sessions.

:func:`repro.bo.optimize.maximize_acquisition` scores a pool of uniform
rows of the box plus Gaussian jitter around the anchors.  This script
chooses the number of uniform rows for each of LOCAT's two searches:
the full-space search of the bootstrap (:data:`repro.bo.optimize.
BOOTSTRAP_POOL`) and the latent search of every tuning session
(:data:`~repro.bo.optimize.LATENT_POOL`).  The jitter stays at 48 and
96 rows.  The script patches the two constants where they are read
(``repro.core.locat.BOOTSTRAP_POOL`` and ``repro.core.tuner.
LATENT_POOL``) for the duration of a run, so no knob exists in
``src/``.  The 12 variants are (bootstrap uniform rows, latent uniform
rows) in {192, 48, 0} x {384, 192, 96, 48}; the default, the pool in
force before the sweep, is (192, 384).

Three kinds of run, each with all variants interleaved run by run:

* **cold**: ``LOCAT(SparkSQLSimulator(get_cluster("x86")),
  get_application("tpcds"), rng=(seed, i)).tune(100.0)``;
* **adapt**: the same tuner tuned at 100, then 300, then 500 GB; only
  the 300 and 500 GB sessions (DAGP adaptation) are reported;
* **drift**: :func:`bench_replay_eval.drive` in race mode, stream ``i``
  running scenario ``("abrupt_skew", "degradation", "node_loss")[i %
  3]`` with ``seed=seed * 10_000 + i``; the retunes, live evaluations
  and simulated overhead after the initial deployment are reported.

Each kind runs i = 0..71 on a selection seed (cold 50, adapt 53, drift
56) and on a held-out seed (cold 51, adapt 54, drift 57).

Selection rule (fixed before any run of this script).  Compared with the
default on the same seed, a variant passes a seed if

* its tuned duration is at most ``1 + 2 * sqrt(2 / 72) * spread`` times
  the default's: the geomean for cold, the geomean at each of 300 and
  500 GB for adapt, the mean post-onset production duration for drift;
* its mean live evaluations are within the same bound;
* its simulated overhead is within the same bound: the geomean for cold
  and adapt, the mean for drift (a stream without a retune pays none).

Each bound is about two standard errors of a 72-vs-72 difference of
means, from the default's spread.  For cold and adapt the spread comes
from 48 cold sessions of the default at ``77720be`` (seed 41): SD of
log tuned duration 0.055, SD of evaluations 8.8% of the mean, SD of log
overhead 0.227, so the bounds are 1.02x, 1.03x and 1.08x.  For drift
the spread is measured first, on the default's runs of seed 56 alone:
the pooled within-scenario standard deviation of each per-stream
statistic, over its mean.  Of the variants that pass every selection
seed, the cheapest by mean wall time per cold session (seed 50) plus
per drift retune (seed 56) that also passes every held-out seed is the
pool used.  If only the default passes, the pool stays.

Run from the repository root (about 80 minutes on one core, about
35 seconds with ``--sessions 1``; ``--stage`` runs one kind, and only a
full run names the choice)::

    PYTHONPATH=src python benchmarks/sweep_acquisition_pool.py \\
        --output BENCH_acquisition_pool_sweep.json

``--sessions 1`` gives a smoke run.  The committed
``BENCH_acquisition_pool_sweep.json`` is the output of the full run
that chose the pool.  The sweep runs LOCAT alone; Tuneful's and
GBO-RL's loops pass their own pool (``BASELINE_POOL``), which it does
not patch.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported, so that wall times are
# comparable across variants.  A value the caller sets explicitly wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse
import contextlib
import itertools
import json
import math
import time
from statistics import mean

import repro.core.locat as locat_module
import repro.core.tuner as tuner_module
from bench_replay_eval import SCENARIOS, drive, make_scenario
from repro.bo.optimize import AcquisitionPool
from repro.core import LOCAT
from repro.sparksim import SparkSQLSimulator, get_application
from repro.sparksim.cluster import get_cluster

SESSIONS = 72
DATASIZE_GB = 100.0
ADAPT_DATASIZES_GB = (300.0, 500.0)
DRIFT_STEPS = 30
BOOTSTRAP_JITTER = 48
LATENT_JITTER = 96

#: (bootstrap uniform rows, latent uniform rows) before the sweep.
DEFAULT = (192, 384)
VARIANTS = list(itertools.product((192, 48, 0), (384, 192, 96, 48)))

#: (kind, selection seed, held-out seed)
KINDS = (("cold", 50, 51), ("adapt", 53, 54), ("drift", 56, 57))

#: The default's spread in cold sessions at ``77720be`` (seed 41, 48
#: sessions), as (tuned, evals, overhead); adapt uses it too.
COLD_SPREAD = (0.055, 0.088, 0.227)


@contextlib.contextmanager
def pool(variant: tuple[int, int]):
    """Patch the bootstrap and latent pools to ``variant``'s uniform rows,
    and fail if a search runs on any other pool (the patch missed)."""
    pools = (AcquisitionPool(variant[0], BOOTSTRAP_JITTER),
             AcquisitionPool(variant[1], LATENT_JITTER))
    maximize = tuner_module.maximize_acquisition

    def checked(score, dim, pool, **kwargs):
        if pool not in pools:
            raise RuntimeError(f"a search ran on {pool}, not on the patched {pools}")
        return maximize(score, dim, pool, **kwargs)

    saved = (locat_module.BOOTSTRAP_POOL, tuner_module.LATENT_POOL)
    locat_module.BOOTSTRAP_POOL, tuner_module.LATENT_POOL = pools
    tuner_module.maximize_acquisition = checked
    try:
        yield
    finally:
        locat_module.BOOTSTRAP_POOL, tuner_module.LATENT_POOL = saved
        tuner_module.maximize_acquisition = maximize


def make_tuner(seed: int, index: int) -> LOCAT:
    simulator = SparkSQLSimulator(get_cluster("x86"))
    return LOCAT(simulator, get_application("tpcds"), rng=(seed, index))


def run_cold(seed: int, index: int) -> dict:
    locat = make_tuner(seed, index)
    start = time.perf_counter()
    result = locat.tune(DATASIZE_GB)
    return {
        "tuned_s": result.best_duration_s,
        "evals": result.evaluations,
        "overhead_s": result.overhead_s,
        "wall_s": time.perf_counter() - start,
    }


def run_adapt(seed: int, index: int) -> dict:
    locat = make_tuner(seed, index)
    locat.tune(DATASIZE_GB)
    start = time.perf_counter()
    results = [locat.tune(size) for size in ADAPT_DATASIZES_GB]
    return {
        "tuned_s": [r.best_duration_s for r in results],
        "evals": sum(r.evaluations for r in results),
        "overhead_s": sum(r.overhead_s for r in results),
        "wall_s": time.perf_counter() - start,
    }


def run_drift(seed: int, index: int) -> dict:
    scenario = SCENARIOS[index % len(SCENARIOS)]
    out = drive(make_scenario(scenario, DRIFT_STEPS), "race", seed=seed * 10_000 + index)
    return {
        "scenario": scenario,
        "tuned_s": out["deployed_regret_s"],
        "evals": out["adaptation_evals"],
        "overhead_s": out["adaptation_overhead_s"],
        "retune_walls_s": [r["wall_s"] for r in out["drift_retunes"]],
    }


RUNNERS = {"cold": run_cold, "adapt": run_adapt, "drift": run_drift}


def geomean(values) -> float:
    return math.exp(mean(math.log(v) for v in values))


def summarize(kind: str, runs: list[dict]) -> dict:
    row = {"evals": mean(r["evals"] for r in runs)}
    if kind == "drift":
        walls = [w for r in runs for w in r["retune_walls_s"]]
        row.update(
            tuned_s=mean(r["tuned_s"] for r in runs),
            overhead_s=mean(r["overhead_s"] for r in runs),
            retunes=len(walls),
            wall_s=mean(walls) if walls else 0.0,
        )
        return row
    row.update(overhead_s=geomean(r["overhead_s"] for r in runs),
               wall_s=mean(r["wall_s"] for r in runs))
    if kind == "adapt":
        row["tuned_by_size_s"] = [
            geomean(r["tuned_s"][k] for r in runs) for k in range(len(ADAPT_DATASIZES_GB))
        ]
    else:
        row["tuned_s"] = geomean(r["tuned_s"] for r in runs)
    return row


def sweep(kind: str, seed: int, n_runs: int) -> dict[tuple, list[dict]]:
    """Every variant over runs 0..n-1 of ``seed``, interleaved: each run
    index runs all variants, in an order rotated per index."""
    runs = {v: [] for v in VARIANTS}
    for index in range(n_runs):
        shift = index % len(VARIANTS)
        for variant in VARIANTS[shift:] + VARIANTS[:shift]:
            with pool(variant):
                runs[variant].append(RUNNERS[kind](seed, index))
        print(f"{kind} seed {seed}: run {index + 1}/{n_runs}", flush=True)
    return runs


def drift_spread(runs: list[dict]) -> tuple[float, float, float]:
    """Pooled within-scenario SD over the mean, per drift statistic."""
    spreads = []
    for key in ("tuned_s", "evals", "overhead_s"):
        overall = mean(r[key] for r in runs)
        squares, dof = 0.0, 0
        for scenario in SCENARIOS:
            values = [r[key] for r in runs if r["scenario"] == scenario]
            if len(values) > 1:
                centre = mean(values)
                squares += sum((v - centre) ** 2 for v in values)
                dof += len(values) - 1
        spreads.append(math.sqrt(squares / dof) / overall if dof and overall > 0 else 0.0)
    return tuple(spreads)


def limits(spread: tuple[float, float, float], n_runs: int) -> tuple[float, ...]:
    """About two standard errors of an ``n_runs``-vs-``n_runs`` difference."""
    return tuple(1.0 + 2.0 * math.sqrt(2.0 / n_runs) * s for s in spread)


def passes(row: dict, default: dict, bounds: tuple[float, float, float]) -> bool:
    tuned, evals, overhead = bounds
    if "tuned_by_size_s" in row:
        quality = all(
            t <= tuned * d for t, d in zip(row["tuned_by_size_s"], default["tuned_by_size_s"])
        )
    else:
        quality = row["tuned_s"] <= tuned * default["tuned_s"]
    return (
        quality
        and row["evals"] <= evals * default["evals"]
        and row["overhead_s"] <= overhead * default["overhead_s"]
    )


def choose(tables: dict, bounds: dict) -> tuple[list, tuple | None]:
    """The variants passing every selection seed, cheapest first, and the
    first of them that also passes every held-out seed."""

    def passing(seeds) -> list:
        return [
            v for v in VARIANTS
            if all(passes(tables[s][v], tables[s][DEFAULT], bounds[s]) for s in seeds)
        ]

    selected = passing([selection for _, selection, _ in KINDS])
    (_, cold, _), _, (_, drift, _) = KINDS
    cost = {v: tables[cold][v]["wall_s"] + tables[drift][v]["wall_s"] for v in selected}
    selected.sort(key=cost.__getitem__)
    held_out = set(passing([held for _, _, held in KINDS]))
    return selected, next((v for v in selected if v in held_out), None)


def table(rows: dict, default: dict, bounds) -> str:
    adapt = "tuned_by_size_s" in default
    names = ("@300 s", "@500 s") if adapt else ("tuned (s)",)
    names = ("variant", *names, "evals", "overhead", "wall s", "pass")
    widths = (9, *([8] * (len(names) - 3)), 6, 6)
    rule = "  ".join("=" * w for w in widths)
    header = "  ".join(
        [f"{names[0]:<{widths[0]}}"] + [f"{n:>{w}}" for n, w in zip(names[1:], widths[1:])]
    )
    lines = [rule, header, rule]
    for variant in VARIANTS:
        row = rows[variant]
        tuned = row["tuned_by_size_s"] if adapt else [row["tuned_s"]]
        cells = [f"{t:8.1f}" for t in tuned] + [
            f"{row['evals']:8.1f}",
            f"{row['overhead_s']:8.0f}",
            f"{row['wall_s']:6.3f}",
            f"{'yes' if passes(row, default, bounds) else 'no':>6}",
        ]
        lines.append("  ".join([f"{variant[0]}, {variant[1]}".ljust(widths[0]), *cells]))
    lines.append(rule)
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=SESSIONS)
    parser.add_argument("--stage", choices=("all", *RUNNERS), default="all")
    parser.add_argument("--output", default=None, help="write the tables as JSON here")
    args = parser.parse_args()
    kinds = [k for k in KINDS if args.stage in ("all", k[0])]

    raw = {
        (kind, seed): sweep(kind, seed, args.sessions)
        for kind, selection, held in kinds
        for seed in (selection, held)
    }
    bounds, tables = {}, {}
    cold_bounds = limits(COLD_SPREAD, args.sessions)
    for kind, selection, held in kinds:
        kind_bounds = (
            limits(drift_spread(raw[kind, selection][DEFAULT]), args.sessions)
            if kind == "drift" else cold_bounds
        )
        for seed in (selection, held):
            bounds[seed] = kind_bounds
            tables[seed] = {v: summarize(kind, runs) for v, runs in raw[kind, seed].items()}

    for (kind, seed) in raw:
        print(f"\n{kind} seed {seed}, {args.sessions} runs per variant, bounds "
              + " / ".join(f"{b:.4f}" for b in bounds[seed])
              + f"\n{table(tables[seed], tables[seed][DEFAULT], bounds[seed])}")
    selected, choice = choose(tables, bounds) if args.stage == "all" else ([], None)
    if args.stage == "all":
        print(f"\npass every selection seed, cheapest first: {selected}"
              f"\nchoice (also passes every held-out seed): {choice}")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(
                {
                    "sessions": args.sessions,
                    "selected": selected,
                    "choice": choice,
                    "bounds": {str(s): b for s, b in bounds.items()},
                    "rows": {
                        str(seed): [
                            dict(bootstrap_uniform=v[0], latent_uniform=v[1], **rows[v])
                            for v in VARIANTS
                        ]
                        for seed, rows in tables.items()
                    },
                },
                handle,
                indent=2,
            )


if __name__ == "__main__":
    main()
