"""Objective wrapper: what every tuner (LOCAT and baselines) optimizes.

Wraps a simulator + application and accounts the *optimization overhead*:
the total simulated execution time of every evaluation a tuner requests.
This is exactly how the paper measures optimization time (Figures 2, 11,
12, 20, 21) — sample collection on the real cluster dominates, algorithm
CPU time is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.datasize import normalize_datasize
from repro.sparksim.configspace import Configuration
from repro.sparksim.engine import SparkSQLSimulator
from repro.sparksim.metrics import ApplicationMetrics
from repro.sparksim.query import Application
from repro.stats.sampling import ensure_rng


@dataclass(frozen=True)
class Trial:
    """One evaluated configuration."""

    config: Configuration
    datasize_gb: float
    duration_s: float  # duration of what was actually executed
    metrics: ApplicationMetrics
    reduced: bool  # True when only the RQA (CSQ subset) was executed


class SparkSQLObjective:
    """Callable objective with overhead accounting and trial history.

    ``run`` executes the full application; ``run_subset`` executes only
    the named queries (the RQA path QCSA enables).  Both append to
    ``history`` and add simulated seconds to ``overhead_s``.
    """

    def __init__(
        self,
        simulator: SparkSQLSimulator,
        app: Application,
        rng: int | np.random.Generator | None = None,
    ):
        self.simulator = simulator
        self.app = app
        self.rng = ensure_rng(rng)
        self.history: list[Trial] = []
        self.overhead_s: float = 0.0

    @property
    def space(self):
        return self.simulator.space

    @property
    def n_evaluations(self) -> int:
        return len(self.history)

    @property
    def overhead_hours(self) -> float:
        return self.overhead_s / 3600.0

    def execute(
        self,
        config: Configuration,
        datasize_gb: float,
        queries: list[str] | tuple[str, ...] | None = None,
    ) -> Trial:
        """Execute a configuration WITHOUT recording it.

        ``queries=None`` runs the full application; otherwise only the
        named queries (the RQA path).  Pair with :meth:`record` to
        append the trial and account its overhead.
        """
        target = self.app if queries is None else self.app.subset(list(queries))
        metrics = self.simulator.run(target, config, datasize_gb, rng=self.rng)
        return Trial(
            config=config,
            datasize_gb=normalize_datasize(datasize_gb),
            duration_s=metrics.duration_s,
            metrics=metrics,
            reduced=queries is not None,
        )

    def record(self, trial: Trial) -> Trial:
        """Append a trial to the history and charge its overhead."""
        self.history.append(trial)
        self.overhead_s += trial.duration_s
        return trial

    def run(self, config: Configuration, datasize_gb: float) -> Trial:
        """Execute the full application and record the trial."""
        return self.record(self.execute(config, datasize_gb))

    def run_subset(self, config: Configuration, datasize_gb: float, queries: list[str]) -> Trial:
        """Execute only ``queries`` (the RQA) and record the trial."""
        return self.record(self.execute(config, datasize_gb, queries))

    def measure(self, config: Configuration, datasize_gb: float, repeats: int = 1) -> float:
        """Mean full-application time of ``config`` WITHOUT counting overhead.

        Used to score final tuned configurations — the paper's speedup
        comparisons (Figures 13, 14) measure the tuned application, which
        is not part of the optimization budget.
        """
        if repeats < 1:
            raise ValueError("repeats must be at least 1")
        times = [
            self.simulator.run(self.app, config, datasize_gb, rng=self.rng).duration_s
            for _ in range(repeats)
        ]
        return float(np.mean(times))

    def best_trial(self, datasize_gb: float | None = None) -> Trial:
        """Lowest-duration *full-application* trial (optionally per datasize).

        Falls back to reduced trials when no full runs exist.
        """
        if not self.history:
            raise RuntimeError("no trials recorded yet")
        if datasize_gb is not None:
            datasize_gb = normalize_datasize(datasize_gb)
        candidates = [t for t in self.history if not t.reduced]
        if datasize_gb is not None:
            candidates = [t for t in candidates if t.datasize_gb == datasize_gb]
        if not candidates:
            candidates = [
                t for t in self.history
                if datasize_gb is None or t.datasize_gb == datasize_gb
            ]
        if not candidates:
            raise RuntimeError(f"no trials recorded for datasize {datasize_gb}")
        return min(candidates, key=lambda t: t.duration_s)
