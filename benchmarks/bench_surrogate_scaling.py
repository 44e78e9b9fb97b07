"""Per-decision surrogate cost vs. history length.

The paper's headline claim is *low-overhead* tuning, and the histories
the surrogate trains on grow: the persistent service accumulates
observations across sessions, and transfer warm-starting transplants
donor rows.  This benchmark measures the exact DAGP's cost as they do:

* **Section A — engine** (fresh fit vs extend).  A fresh DAGP fit per
  BO iteration pays an O(n^3) factorization, ~36 slice-sampling steps
  each costing a fresh Cholesky-backed log-marginal-likelihood, then
  n_mcmc stacked models factorized again.  The engine every BO loop now
  uses grows one surrogate instead, with exact rank-k extends and
  hyper-parameters re-sampled by a resumed chain every third row.  The
  pinned claim: **at 200-observation histories extend is at least 3x
  faster per iteration than a fresh fit**.
* **Section B — long histories** (reported, not asserted).  The
  one-time fit and the per-decision cost (extend one row + suggest) of
  the exact DAGP at 2k and 5k rows, far beyond any history a measured
  workload reaches (``docs/architecture.md``, "History sizes").

Results land in ``BENCH_surrogate_scaling.json`` at the repository root
(same convention as ``BENCH_service_load.json``), or wherever
``--output`` points.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_surrogate_scaling.py
    PYTHONPATH=src python benchmarks/bench_surrogate_scaling.py --smoke \
        --output smoke-artifacts/BENCH_surrogate_scaling.json

or as part of the benchmark suite
(``PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q -s``).
``--smoke`` (the CI step) measures section A's 200-row point only and
asserts extend >= 3x over a fresh fit there.  CI points ``--output`` at
its artifact directory so a smoke run never rewrites the committed
full-run file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is imported: on a small host BLAS
# threads contend with each other and inflate the wall figures.  A value
# the caller sets explicitly still wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from repro.bo.optimize import LATENT_POOL, maximize_acquisition
from repro.core.dagp import DatasizeAwareGP

#: Input dimensionality of the synthetic tuning problem — a typical
#: IICP latent dimensionality plus headroom.
DIM = 6

#: Section A sweep of history lengths; the budget assertion reads at 200.
HISTORY_LENGTHS = (50, 100, 200, 320)

#: Section B sweep — long histories, reported only.  The exact fit is
#: O(n^3) in time and O(n^2) in memory: about 2 s at 5k rows on one core.
LONG_HISTORY_LENGTHS = (2_000, 5_000)

DATASIZE_GB = 200.0

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_surrogate_scaling.json"


def _objective(points: np.ndarray) -> np.ndarray:
    """Smooth multiplicative response surface, minimum at 0.3 per axis."""
    points = np.atleast_2d(points)
    penalty = np.sum((points - 0.3) ** 2, axis=1)
    return 50.0 * (DATASIZE_GB / 100.0) * (1.0 + penalty)


def _history(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    points = rng.random((n, DIM))
    datasizes = np.full(n, DATASIZE_GB)
    return points, datasizes, _objective(points)


def _suggest(model: DatasizeAwareGP, best: float, rng: np.random.Generator) -> np.ndarray:
    def score(candidates: np.ndarray) -> np.ndarray:
        return model.acquisition(candidates, DATASIZE_GB, best)

    point, _ = maximize_acquisition(score, DIM, pool=LATENT_POOL, rng=rng)
    return point


# ----------------------------------------------------------------------
# Section A: fresh fit vs extend
# ----------------------------------------------------------------------


def measure_path(
    n_history: int, iterations: int, incremental: bool, n_mcmc: int = 8, seed: int = 0
) -> dict:
    """Median per-iteration update+suggest wall-clock for one path.

    Each measured iteration is what a BO loop pays per step at this
    history length: bring the surrogate up to date with the data
    observed so far — a fresh fit, or an extend of one persistent
    surrogate with ``incremental`` — then maximize the acquisition for
    the next proposal.  The proposal is evaluated on the synthetic
    objective and appended, so the history grows exactly as in a real
    session.
    """
    points, datasizes, durations = _history(n_history, seed)
    points, datasizes, durations = list(points), list(datasizes), list(durations)
    rng = np.random.default_rng(seed + 1)
    engine: DatasizeAwareGP | None = None
    n_modeled = 0
    if incremental:
        # The session's one-off initial fit is not a per-iteration cost.
        engine = DatasizeAwareGP(DIM, n_mcmc=n_mcmc)
        engine.fit(np.stack(points), np.array(datasizes), np.array(durations), rng=rng)
        n_modeled = len(points)
    per_iteration: list[float] = []
    for _ in range(iterations):
        # The timed window is everything a BO iteration pays on the
        # surrogate: bringing the model up to date with the rows observed
        # since the last iteration (extend, including its periodic MCMC
        # refresh — or the fresh fit), then the suggest.
        started = time.perf_counter()
        if incremental:
            assert engine is not None
            if len(points) > n_modeled:
                engine.extend(
                    np.stack(points[n_modeled:]),
                    np.array(datasizes[n_modeled:]),
                    np.array(durations[n_modeled:]),
                    rng=rng,
                )
                n_modeled = len(points)
            model = engine
        else:
            model = DatasizeAwareGP(DIM, n_mcmc=n_mcmc)
            model.fit(np.stack(points), np.array(datasizes), np.array(durations), rng=rng)
        best = float(np.min(durations))
        proposal = _suggest(model, best, rng)
        per_iteration.append(time.perf_counter() - started)

        duration = float(_objective(proposal[None, :])[0])
        points.append(proposal)
        datasizes.append(DATASIZE_GB)
        durations.append(duration)
    return {
        "n_history": n_history,
        "iterations": iterations,
        "median_s": float(np.median(per_iteration)),
        "mean_s": float(np.mean(per_iteration)),
    }


def measure(lengths: tuple[int, ...], iterations: int, n_mcmc: int = 8) -> list[dict]:
    rows = []
    for n in lengths:
        fresh = measure_path(n, iterations, incremental=False, n_mcmc=n_mcmc)
        incr = measure_path(n, iterations, incremental=True, n_mcmc=n_mcmc)
        rows.append(
            {
                "n_history": n,
                "fresh_fit_s": fresh["median_s"],
                "extend_s": incr["median_s"],
                "speedup": fresh["median_s"] / max(incr["median_s"], 1e-12),
            }
        )
    return rows


def report(rows: list[dict]) -> str:
    lines = [
        "per-iteration update+suggest wall-clock (median), fresh fit vs extend",
        f"{'history':>8} {'fresh fit':>10} {'extend':>12} {'speedup':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row['n_history']:>8} {row['fresh_fit_s']:>9.3f}s {row['extend_s']:>11.3f}s "
            f"{row['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


def _speedup_at(rows: list[dict], n_history: int) -> float:
    for row in rows:
        if row["n_history"] == n_history:
            return row["speedup"]
    raise KeyError(f"no measurement at history length {n_history}")


# ----------------------------------------------------------------------
# Section B: long histories, reported only
# ----------------------------------------------------------------------


def measure_long_history(n_history: int, decisions: int = 5, seed: int = 0) -> dict:
    """One-time fit cost and median per-decision cost at ``n_history`` rows.

    ``n_mcmc=0`` isolates the surrogate's own update+suggest cost from
    the slice-sampling budget.  A decision is what a long-lived tenant
    pays per new observation: extend the model by one row, then
    maximize the acquisition for the next proposal.
    """
    points, datasizes, durations = _history(n_history, seed)
    rng = np.random.default_rng(seed + 1)
    engine = DatasizeAwareGP(DIM, n_mcmc=0)
    started = time.perf_counter()
    engine.fit(points, datasizes, durations, rng=rng)
    fit_s = time.perf_counter() - started

    best = float(np.min(durations))
    per_decision: list[float] = []
    for _ in range(decisions):
        started = time.perf_counter()
        proposal = _suggest(engine, best, rng)
        duration = float(_objective(proposal[None, :])[0])
        engine.extend(
            proposal[None, :], np.array([DATASIZE_GB]), np.array([duration]), rng=rng
        )
        per_decision.append(time.perf_counter() - started)
        best = min(best, duration)
    return {
        "n_history": n_history,
        "fit_s": float(fit_s),
        "per_decision_s": float(np.median(per_decision)),
    }


def long_history_report(rows: list[dict]) -> str:
    lines = [
        "one-time fit and median per-decision (extend 1 row + suggest) wall-clock, n_mcmc=0",
        f"{'history':>8} {'fit':>10} {'per-decision':>13}",
    ]
    for row in rows:
        lines.append(
            f"{row['n_history']:>8} {row['fit_s']:>9.3f}s "
            f"{row['per_decision_s'] * 1e3:>11.1f}ms"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------


def write_json(payload: dict, path: Path = BENCH_JSON) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")


def test_surrogate_scaling(run_once):
    """Extend+suggest must be >= 3x faster than a fresh fit at 200 observations."""
    rows = run_once(measure, (50, 200), 8)
    print("\n" + report(rows))
    speedup = _speedup_at(rows, 200)
    assert speedup >= 3.0, f"expected >= 3x at 200 observations, got {speedup:.2f}x"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: measure section A's 200-row point only and assert "
        "the 3x extend-over-fresh-fit budget",
    )
    parser.add_argument(
        "--iterations", type=int, default=8,
        help="measured BO iterations per (path, history length) in section A",
    )
    parser.add_argument(
        "--decisions", type=int, default=5,
        help="measured decisions per history length in section B",
    )
    parser.add_argument(
        "--output", type=Path, default=BENCH_JSON,
        help=f"write the results here (default: {BENCH_JSON.name} at the repository root)",
    )
    args = parser.parse_args(argv)

    payload: dict = {
        "benchmark": "surrogate_scaling",
        "dim": DIM,
        "datasize_gb": DATASIZE_GB,
        "smoke": bool(args.smoke),
    }

    if args.smoke:
        print("[section A] fresh fit vs extend (200 rows)")
        engine_rows = measure((200,), max(4, min(args.iterations, 6)))
        print(report(engine_rows))
        payload.update({"engine": engine_rows, "rows": []})
        write_json(payload, args.output)

        speedup = _speedup_at(engine_rows, 200)
        if speedup < 3.0:
            print(
                f"smoke FAILED: extend only {speedup:.2f}x faster than a fresh fit "
                "at 200 rows (budget: >= 3x)",
                file=sys.stderr,
            )
            return 1
        print(f"smoke ok (engine {speedup:.1f}x)")
        return 0

    print("[section A] fresh fit vs extend")
    engine_rows = measure(HISTORY_LENGTHS, args.iterations)
    print(report(engine_rows))
    print("[section B] long histories (reported only)")
    long_rows = [
        measure_long_history(n, decisions=args.decisions) for n in LONG_HISTORY_LENGTHS
    ]
    print(long_history_report(long_rows))
    payload.update({"engine": engine_rows, "rows": long_rows})
    write_json(payload, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
