"""Per-decision surrogate cost vs. history length, across backends.

The paper's headline claim is *low-overhead* tuning, and PR after PR the
histories the surrogate trains on get longer: the persistent service
accumulates observations across sessions, and transfer warm-starting
transplants donor rows.  Two generations of fixes live in this
repository and this benchmark measures both:

* **Section A — engine** (fresh fit vs extend).  A fresh DAGP fit per
  BO iteration pays an O(n^3) factorization, ~36 slice-sampling steps
  each costing a fresh Cholesky-backed log-marginal-likelihood, then
  n_mcmc stacked models factorized again.  The engine every BO loop now
  uses grows one surrogate instead, with exact rank-k extends and
  hyper-parameters re-sampled by a resumed chain every third row.  The
  pinned claim: **at 200-observation histories extend is at least 3x
  faster per iteration than a fresh fit**.
* **Section B — backends** (each forced through ``backend_policy``,
  whatever the history size).  Even the
  incremental engine carries O(n^2) per-decision cost and an O(n^3)
  refit whenever hyper-parameters move, so service tenants with
  thousands of observations hit a wall.  The sparse backend (Nystrom
  inducing points, O(m^2) per decision) keeps per-decision latency
  near-flat from 2k to 50k rows.  The exact backend is measured up to
  ``EXACT_MAX_HISTORY`` rows only — beyond that its one-time O(n^3) fit
  alone takes minutes on one core and gigabytes of memory; skipped
  sizes are reported explicitly rather than silently dropped.

Section C checks that the sparse backend still *predicts* like the
exact GP (held-out RMSE relative to the exact posterior's spread), and
Section D runs small otherwise-identical BO loops per backend to check
final-incumbent quality.  Results land in ``BENCH_surrogate_scaling.json``
at the repository root (same convention as ``BENCH_service_load.json``),
or wherever ``--output`` points.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_surrogate_scaling.py
    PYTHONPATH=src python benchmarks/bench_surrogate_scaling.py --smoke \
        --output smoke-artifacts/BENCH_surrogate_scaling.json

or as part of the benchmark suite
(``PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q -s``).
``--smoke`` (the CI step) measures the 2k-row point only and asserts
both budgets: extend >= 3x over a fresh fit at 200 rows, and sparse
extend+decide >= 5x over exact at 2k rows with held-out predictions
agreeing within tolerance.  CI points ``--output`` at its artifact
directory so a smoke run never rewrites the committed full-run file.
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

from repro.bo.optimize import maximize_acquisition
from repro.core.dagp import DatasizeAwareGP
from repro.surrogate.policy import BackendPolicy

#: Input dimensionality of the synthetic tuning problem — a typical
#: IICP latent dimensionality plus headroom.
DIM = 6

#: Section A sweep of history lengths; the budget assertion reads at 200.
HISTORY_LENGTHS = (50, 100, 200, 320)

#: Section B sweep — service-tenant scale histories.
BACKEND_HISTORY_LENGTHS = (2_000, 5_000, 10_000, 20_000, 50_000)

#: Largest history the exact backend is measured at.  Its one-time fit
#: is O(n^3) in time and O(n^2) in memory: ~10 s at 5k rows on one
#: core, ~45 s and several copies of an 800 MB covariance at 10k.
#: Larger sizes are reported as skipped, never silently capped.
EXACT_MAX_HISTORY = 5_000

#: Held-out prediction agreement budget: RMSE against the exact
#: backend's posterior mean, relative to the spread of that mean, for
#: the sparse backend.  Observed ~0.03 at 2k rows and ~0.17 at 5k; the
#: budget leaves headroom for unlucky seeds.
AGREEMENT_TOLERANCE = 0.35

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

    point, _ = maximize_acquisition(score, DIM, n_candidates=384, rng=rng)
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
# Section B: backend scaling, each backend forced by its policy
# ----------------------------------------------------------------------


def measure_backend(
    backend: str, n_history: int, decisions: int = 5, seed: int = 0
) -> dict:
    """One-time fit cost and median per-decision cost for one backend.

    ``n_mcmc=0`` isolates the surrogate's own update+suggest cost from
    the (backend-independent) slice-sampling budget.  A decision is what
    a long-lived tenant pays per new observation: extend the model by
    one row, then maximize the acquisition for the next proposal.
    """
    points, datasizes, durations = _history(n_history, seed)
    rng = np.random.default_rng(seed + 1)
    engine = DatasizeAwareGP(DIM, n_mcmc=0, backend_policy=BackendPolicy.forced(backend))
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
        "backend": backend,
        "n_history": n_history,
        "fit_s": float(fit_s),
        "per_decision_s": float(np.median(per_decision)),
        "skipped": False,
    }


def measure_backends(
    lengths: tuple[int, ...], decisions: int = 5, seed: int = 0
) -> list[dict]:
    rows = []
    for n in lengths:
        for backend in ("exact", "sparse"):
            if backend == "exact" and n > EXACT_MAX_HISTORY:
                print(
                    f"  [skip] exact backend at {n} rows: O(n^3) fit exceeds the "
                    f"benchmark budget (measured up to {EXACT_MAX_HISTORY})"
                )
                rows.append(
                    {
                        "backend": backend,
                        "n_history": n,
                        "fit_s": None,
                        "per_decision_s": None,
                        "skipped": True,
                    }
                )
                continue
            rows.append(measure_backend(backend, n, decisions=decisions, seed=seed))
    return rows


def backend_report(rows: list[dict]) -> str:
    lines = [
        "one-time fit and median per-decision (extend 1 row + suggest) wall-clock, n_mcmc=0",
        f"{'history':>8} {'backend':>9} {'fit':>10} {'per-decision':>13}",
    ]
    for row in rows:
        if row["skipped"]:
            lines.append(f"{row['n_history']:>8} {row['backend']:>9} {'skipped':>10} {'—':>13}")
        else:
            lines.append(
                f"{row['n_history']:>8} {row['backend']:>9} {row['fit_s']:>9.3f}s "
                f"{row['per_decision_s'] * 1e3:>11.1f}ms"
            )
    return "\n".join(lines)


def _backend_row(rows: list[dict], backend: str, n_history: int) -> dict:
    for row in rows:
        if row["backend"] == backend and row["n_history"] == n_history:
            return row
    raise KeyError(f"no measurement for {backend} at {n_history} rows")


# ----------------------------------------------------------------------
# Section C: held-out prediction agreement vs the exact backend
# ----------------------------------------------------------------------


def measure_agreement(n_history: int, n_test: int = 256, seed: int = 0) -> dict:
    """Held-out posterior-mean RMSE of the sparse backend vs exact.

    Normalized by the spread of the exact posterior mean over the test
    points, so the number reads as "fraction of the signal lost".
    """
    points, datasizes, durations = _history(n_history, seed)
    test_points = np.random.default_rng(seed + 7).random((n_test, DIM))
    test_x = DatasizeAwareGP._join(test_points, np.full(n_test, DATASIZE_GB))

    means = {}
    for backend in ("exact", "sparse"):
        engine = DatasizeAwareGP(DIM, n_mcmc=0, backend_policy=BackendPolicy.forced(backend))
        engine.fit(points, datasizes, durations)
        mean, _ = engine.gp.predict(test_x)
        means[backend] = mean
    spread = float(np.std(means["exact"]))
    rmse = float(np.sqrt(np.mean((means["sparse"] - means["exact"]) ** 2)))
    return {
        "n_history": n_history,
        "n_test": n_test,
        "exact_mean_std": spread,
        "sparse_rmse": rmse,
        "sparse_relative_rmse": rmse / max(spread, 1e-12),
    }


def agreement_report(agreement: dict) -> str:
    return (
        f"held-out posterior-mean agreement vs exact at {agreement['n_history']} rows "
        f"({agreement['n_test']} test points, exact spread {agreement['exact_mean_std']:.3f}): "
        f"sparse RMSE {agreement['sparse_rmse']:.3f} "
        f"({agreement['sparse_relative_rmse']:.2f} rel)"
    )


# ----------------------------------------------------------------------
# Section D: final-incumbent quality, small BO loops per backend
# ----------------------------------------------------------------------


def measure_quality(
    decisions: int = 40, n_seed: int = 12, n_mcmc: int = 4, seed: int = 0
) -> list[dict]:
    """Best objective value found by otherwise-identical BO loops.

    The sparse backend's capacity is shrunk to 16 inducing points so it
    genuinely compresses at this toy scale — with the default it would
    be exact-equivalent and the check would be vacuous.
    """
    out = []
    for backend in ("exact", "sparse"):
        points, datasizes, durations = _history(n_seed, seed)
        points, datasizes, durations = list(points), list(datasizes), list(durations)
        rng = np.random.default_rng(seed + 3)
        engine = DatasizeAwareGP(
            DIM, n_mcmc=n_mcmc, backend_policy=BackendPolicy.forced(backend, n_inducing=16)
        )
        engine.fit(np.stack(points), np.array(datasizes), np.array(durations), rng=rng)
        for _ in range(decisions):
            best = float(np.min(durations))
            proposal = _suggest(engine, best, rng)
            duration = float(_objective(proposal[None, :])[0])
            points.append(proposal)
            datasizes.append(DATASIZE_GB)
            durations.append(duration)
            engine.extend(
                proposal[None, :], np.array([DATASIZE_GB]), np.array([duration]), rng=rng
            )
        lml_stats = None
        if hasattr(engine.gp, "lml_cache_stats"):
            lml_stats = engine.gp.lml_cache_stats()
        out.append(
            {
                "backend": backend,
                "decisions": decisions,
                "best_duration_s": float(np.min(durations)),
                "optimum_s": float(_objective(np.full((1, DIM), 0.3))[0]),
                "lml_cache": lml_stats,
            }
        )
    return out


def quality_report(rows: list[dict]) -> str:
    optimum = rows[0]["optimum_s"]
    lines = [
        f"final incumbent after {rows[0]['decisions']} decisions (optimum {optimum:.2f}s)",
    ]
    for row in rows:
        cache = row["lml_cache"]
        cache_note = (
            f"  lml-cache hits/misses/evictions {cache['hits']}/{cache['misses']}/"
            f"{cache['evictions']}"
            if cache
            else ""
        )
        lines.append(
            f"  {row['backend']:>9}: best {row['best_duration_s']:.3f}s "
            f"(regret {row['best_duration_s'] - optimum:+.3f}s){cache_note}"
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


def test_backend_scaling(run_once):
    """Sparse must be >= 5x faster per decision than exact at 2k rows."""
    rows = run_once(measure_backends, (2_000,), 3)
    print("\n" + backend_report(rows))
    exact = _backend_row(rows, "exact", 2_000)
    sparse = _backend_row(rows, "sparse", 2_000)
    ratio = exact["per_decision_s"] / max(sparse["per_decision_s"], 1e-12)
    assert ratio >= 5.0, f"expected >= 5x per decision at 2k rows, got {ratio:.2f}x"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: measure the 200-row engine point and the 2k-row "
        "backend point only, assert the 3x engine and 5x sparse-backend "
        "budgets plus held-out prediction agreement",
    )
    parser.add_argument(
        "--iterations", type=int, default=8,
        help="measured BO iterations per (path, history length) in section A",
    )
    parser.add_argument(
        "--decisions", type=int, default=5,
        help="measured decisions per (backend, history length) in section B",
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
        "exact_max_history": EXACT_MAX_HISTORY,
        "agreement_tolerance": AGREEMENT_TOLERANCE,
    }

    if args.smoke:
        print("[section A] fresh fit vs extend (200 rows)")
        engine_rows = measure((200,), max(4, min(args.iterations, 6)))
        print(report(engine_rows))
        print("[section B] surrogate backends (2k rows)")
        backend_rows = measure_backends((2_000,), decisions=3)
        print(backend_report(backend_rows))
        print("[section C] held-out prediction agreement (2k rows)")
        agreement = measure_agreement(2_000)
        print(agreement_report(agreement))
        payload.update(
            {"engine": engine_rows, "rows": backend_rows, "agreement": agreement,
             "quality": []}
        )
        write_json(payload, args.output)

        failures = []
        speedup = _speedup_at(engine_rows, 200)
        if speedup < 3.0:
            failures.append(
                f"extend only {speedup:.2f}x faster than a fresh fit "
                "at 200 rows (budget: >= 3x)"
            )
        exact = _backend_row(backend_rows, "exact", 2_000)
        sparse = _backend_row(backend_rows, "sparse", 2_000)
        ratio = exact["per_decision_s"] / max(sparse["per_decision_s"], 1e-12)
        if ratio < 5.0:
            failures.append(
                f"sparse backend only {ratio:.2f}x faster per decision than "
                "exact at 2k rows (budget: >= 5x)"
            )
        rel = agreement["sparse_relative_rmse"]
        if rel > AGREEMENT_TOLERANCE:
            failures.append(
                f"sparse held-out predictions disagree with exact: relative "
                f"RMSE {rel:.2f} (budget: <= {AGREEMENT_TOLERANCE})"
            )
        for failure in failures:
            print(f"smoke FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"smoke ok (engine {speedup:.1f}x, sparse backend {ratio:.1f}x)")
        return 0

    print("[section A] fresh fit vs extend")
    engine_rows = measure(HISTORY_LENGTHS, args.iterations)
    print(report(engine_rows))
    print("[section B] surrogate backends at service-tenant scale")
    backend_rows = measure_backends(BACKEND_HISTORY_LENGTHS, decisions=args.decisions)
    print(backend_report(backend_rows))
    print("[section C] held-out prediction agreement")
    agreement = measure_agreement(5_000)
    print(agreement_report(agreement))
    print("[section D] final-incumbent quality per backend")
    quality = measure_quality()
    print(quality_report(quality))
    payload.update(
        {"engine": engine_rows, "rows": backend_rows, "agreement": agreement,
         "quality": quality}
    )
    write_json(payload, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
