"""Wall-clock speedup of the parallel batch evaluation pipeline.

The paper's central cost claim is that *sample collection dominates*
optimization time: every candidate configuration costs a full (or
RQA-reduced) application run on the cluster.  A real cluster can run
several candidate configurations concurrently, which is exactly what the
``ParallelEvaluator`` + constant-liar q-EI pipeline exploits — so the
honest thing to measure is a session whose evaluations carry cluster-like
latency.  ``LatencySimulator`` adds a fixed per-run sleep emulating the
submission/collection latency of a real Spark deployment (during which
the GIL is released, as it would be while waiting on a cluster); the
analytic model's CPU time rides on top.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py
    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py --smoke

or as part of the benchmark suite
(``PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q -s``).

The polish sweep is disabled in the measured sessions: it is a greedy
coordinate descent where every candidate depends on the previous
verdict, so it is inherently sequential and would only dilute what this
benchmark isolates — the batched BO pipeline.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import LOCAT
from repro.sparksim import SparkSQLSimulator, get_application
from repro.sparksim.cluster import get_cluster


class LatencySimulator(SparkSQLSimulator):
    """Simulator with per-run latency emulating cluster sample collection."""

    def __init__(self, cluster, latency_s: float, noise: float = 0.04):
        super().__init__(cluster, noise=noise)
        self.latency_s = float(latency_s)

    def run(self, app, config, datasize_gb, rng=None):
        if self.latency_s > 0:
            time.sleep(self.latency_s)
        return super().run(app, config, datasize_gb, rng=rng)


def run_session(
    n_workers: int,
    latency_s: float,
    n_qcsa: int,
    max_iterations: int,
    datasize_gb: float = 200.0,
    seed: int = 5,
) -> dict:
    """One seeded LOCAT tuning session; returns timings and the result."""
    simulator = LatencySimulator(get_cluster("x86"), latency_s)
    locat = LOCAT(
        simulator,
        get_application("join"),
        n_qcsa=n_qcsa,
        n_iicp=10,
        max_iterations=max_iterations,
        min_iterations=max(2, max_iterations // 2),
        n_mcmc=0,
        use_polish=False,
        n_workers=n_workers,
        rng=seed,
    )
    started = time.perf_counter()
    result = locat.tune(datasize_gb)
    wall_s = time.perf_counter() - started
    return {
        "n_workers": n_workers,
        "wall_s": wall_s,
        "evaluations": result.evaluations,
        "best_duration_s": result.best_duration_s,
    }


def measure(latency_s: float, n_qcsa: int, max_iterations: int, workers: int) -> dict:
    serial = run_session(1, latency_s, n_qcsa, max_iterations)
    parallel = run_session(workers, latency_s, n_qcsa, max_iterations)
    return {
        "serial": serial,
        "parallel": parallel,
        "speedup": serial["wall_s"] / max(parallel["wall_s"], 1e-9),
    }


def report(result: dict) -> str:
    serial, parallel = result["serial"], result["parallel"]
    return (
        f"serial   (n_workers=1): {serial['wall_s']:6.2f}s wall, "
        f"{serial['evaluations']} evaluations, best {serial['best_duration_s']:.1f}s\n"
        f"parallel (n_workers={parallel['n_workers']}): {parallel['wall_s']:6.2f}s wall, "
        f"{parallel['evaluations']} evaluations, best {parallel['best_duration_s']:.1f}s\n"
        f"speedup: {result['speedup']:.2f}x"
    )


def test_parallel_speedup(run_once):
    """A full session at n_workers=4 must beat the serial wall-clock."""
    result = run_once(measure, 0.05, 16, 16, 4)
    print("\n" + report(result))
    assert result["parallel"]["evaluations"] >= 16
    assert result["speedup"] >= 2.0, f"expected >= 2x, got {result['speedup']:.2f}x"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny budgets and latency; verifies the pipeline end to end "
        "without asserting a speedup (for CI)",
    )
    parser.add_argument("--workers", type=int, default=4, help="parallel worker count")
    parser.add_argument(
        "--latency", type=float, default=0.05,
        help="emulated per-run cluster sample-collection latency in seconds",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        result = measure(0.02, n_qcsa=8, max_iterations=4, workers=args.workers)
        print(report(result))
        if result["parallel"]["evaluations"] < 8:
            print("smoke FAILED: parallel session ran too few evaluations", file=sys.stderr)
            return 1
        print("smoke ok")
        return 0

    result = measure(args.latency, n_qcsa=16, max_iterations=16, workers=args.workers)
    print(report(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
