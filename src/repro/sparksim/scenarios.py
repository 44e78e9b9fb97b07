"""Dynamic workload scenarios: deterministic run streams over time.

The paper's online story is an application that "runs repeatedly many
times with the size of input data changing over time" — but real
deployments drift in more ways than datasize: the key distribution
skews, disks slow down as they fill, nodes drop out of the cluster.
This module generates those trajectories as data, so the online
controller can be exercised (and benchmarked) against reproducible
time-varying workloads.

A :class:`Scenario` is a named, finite sequence of :class:`RunStep`
environment states.  Each step describes *what the world looks like*
for one production run: the input datasize plus multiplicative
environment deviations (per-core speed, disk and network bandwidth, a
skew shift applied to every stage, lost worker nodes).  Steps carry a
``drifted`` ground-truth flag marking deviations from the baseline
environment, which the drift benchmark uses to score detection delay
and false triggers.

Generators are pure functions of their arguments (stochastic ones take
an explicit ``seed``), so a scenario is bit-for-bit reproducible.
:class:`ScenarioStream` turns a scenario into measured durations: it
rebuilds the (degraded) cluster and (skew-shifted) application per
distinct environment and runs the deployed configuration through
:class:`~repro.sparksim.engine.SparkSQLSimulator` with a per-step
derived RNG — the measured stream is a pure function of (scenario,
config sequence, seed), independent of call order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.sparksim.cluster import ClusterSpec
from repro.sparksim.engine import SparkSQLSimulator
from repro.sparksim.query import Application, Query
from repro.stats.sampling import ensure_rng


@dataclass(frozen=True)
class RunStep:
    """The environment of one production run.

    Factors are multiplicative against the baseline cluster (1.0 = no
    change); ``skew_shift`` is added to every stage's partition skew
    (clipped to the valid [0, 1] range); ``lost_workers`` removes
    worker nodes (at least one always survives).
    """

    index: int
    datasize_gb: float
    skew_shift: float = 0.0
    core_factor: float = 1.0
    disk_factor: float = 1.0
    network_factor: float = 1.0
    lost_workers: int = 0
    drifted: bool = False

    def __post_init__(self) -> None:
        if self.datasize_gb <= 0:
            raise ValueError("datasize_gb must be positive")
        if min(self.core_factor, self.disk_factor, self.network_factor) <= 0:
            raise ValueError("environment factors must be positive")
        if self.lost_workers < 0:
            raise ValueError("lost_workers must be non-negative")

    def environment_key(self) -> tuple:
        """Everything that changes the simulator, minus the datasize."""
        return (
            round(self.skew_shift, 9),
            round(self.core_factor, 9),
            round(self.disk_factor, 9),
            round(self.network_factor, 9),
            self.lost_workers,
        )


@dataclass(frozen=True)
class Scenario:
    """A named run stream: one :class:`RunStep` per production run."""

    name: str
    description: str
    steps: tuple[RunStep, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError(f"scenario {self.name} has no steps")

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def onset(self) -> int | None:
        """Index of the first drifted step (None for drift-free streams)."""
        for step in self.steps:
            if step.drifted:
                return step.index
        return None


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def stable(n_steps: int = 30, datasize_gb: float = 100.0) -> Scenario:
    """A drift-free control stream: any alarm on it is a false trigger."""
    steps = tuple(RunStep(index=i, datasize_gb=float(datasize_gb)) for i in range(n_steps))
    return Scenario(
        name="stable",
        description="constant datasize, healthy cluster (false-trigger control)",
        steps=steps,
    )


def datasize_random_walk(
    n_steps: int = 30,
    start_gb: float = 100.0,
    step_fraction: float = 0.08,
    lo_gb: float = 20.0,
    hi_gb: float = 600.0,
    seed: int = 0,
) -> Scenario:
    """A multiplicative random walk of the input datasize.

    The environment stays healthy (``drifted`` is never set): growing
    data is exactly what the DAGP absorbs without drift alarms, and
    what the datasize margin handles when the walk leaves the tuned
    region.
    """
    rng = ensure_rng(seed)
    size = float(start_gb)
    steps = []
    for i in range(n_steps):
        steps.append(RunStep(index=i, datasize_gb=size))
        size = float(np.clip(size * np.exp(rng.normal(0.0, step_fraction)), lo_gb, hi_gb))
    return Scenario(
        name="datasize_walk",
        description=f"datasize random walk from {start_gb:.0f} GB "
        f"(±{step_fraction:.0%} per run, healthy cluster)",
        steps=tuple(steps),
    )


def gradual_skew_drift(
    n_steps: int = 30,
    datasize_gb: float = 100.0,
    onset: int | None = None,
    ramp: int = 10,
    max_shift: float = 0.5,
) -> Scenario:
    """Key-distribution skew ramping up linearly after ``onset``."""
    onset = max(1, n_steps // 3) if onset is None else onset
    if not 0 <= onset < n_steps:
        raise ValueError("onset must fall inside the stream")
    steps = []
    for i in range(n_steps):
        shift = max_shift * min(1.0, max(0, i - onset + 1) / max(ramp, 1))
        steps.append(
            RunStep(
                index=i,
                datasize_gb=float(datasize_gb),
                skew_shift=shift,
                drifted=shift > 0.0,
            )
        )
    return Scenario(
        name="gradual_skew",
        description=f"partition skew ramps to +{max_shift:.2f} over "
        f"{ramp} runs starting at run {onset}",
        steps=tuple(steps),
    )


def abrupt_skew_drift(
    n_steps: int = 30,
    datasize_gb: float = 100.0,
    onset: int | None = None,
    shift: float = 0.5,
) -> Scenario:
    """Key-distribution skew jumping in one step (an upstream schema or
    partitioning change going live)."""
    onset = max(1, n_steps // 3) if onset is None else onset
    if not 0 <= onset < n_steps:
        raise ValueError("onset must fall inside the stream")
    steps = tuple(
        RunStep(
            index=i,
            datasize_gb=float(datasize_gb),
            skew_shift=shift if i >= onset else 0.0,
            drifted=i >= onset,
        )
        for i in range(n_steps)
    )
    return Scenario(
        name="abrupt_skew",
        description=f"partition skew jumps by +{shift:.2f} at run {onset}",
        steps=steps,
    )


def cluster_degradation(
    n_steps: int = 30,
    datasize_gb: float = 100.0,
    onset: int | None = None,
    disk_factor: float = 0.45,
    core_factor: float = 0.75,
) -> Scenario:
    """Disks and cores slow down abruptly at ``onset`` (filling disks,
    thermal throttling, a noisy co-tenant)."""
    onset = max(1, n_steps // 3) if onset is None else onset
    if not 0 <= onset < n_steps:
        raise ValueError("onset must fall inside the stream")
    steps = tuple(
        RunStep(
            index=i,
            datasize_gb=float(datasize_gb),
            disk_factor=disk_factor if i >= onset else 1.0,
            core_factor=core_factor if i >= onset else 1.0,
            drifted=i >= onset,
        )
        for i in range(n_steps)
    )
    return Scenario(
        name="degradation",
        description=f"disk bandwidth x{disk_factor:.2f}, core speed "
        f"x{core_factor:.2f} from run {onset}",
        steps=steps,
    )


def node_loss(
    n_steps: int = 30,
    datasize_gb: float = 100.0,
    onset: int | None = None,
    lost_workers: int = 3,
) -> Scenario:
    """Worker nodes drop out of the cluster at ``onset`` and stay gone."""
    onset = max(1, n_steps // 3) if onset is None else onset
    if not 0 <= onset < n_steps:
        raise ValueError("onset must fall inside the stream")
    steps = tuple(
        RunStep(
            index=i,
            datasize_gb=float(datasize_gb),
            lost_workers=lost_workers if i >= onset else 0,
            drifted=i >= onset,
        )
        for i in range(n_steps)
    )
    return Scenario(
        name="node_loss",
        description=f"{lost_workers} worker node(s) lost at run {onset}",
        steps=steps,
    )


SCENARIO_BUILDERS = {
    "stable": stable,
    "datasize_walk": datasize_random_walk,
    "gradual_skew": gradual_skew_drift,
    "abrupt_skew": abrupt_skew_drift,
    "degradation": cluster_degradation,
    "node_loss": node_loss,
}


def list_scenarios() -> list[str]:
    """Names accepted by :func:`build_scenario`."""
    return list(SCENARIO_BUILDERS)


def build_scenario(name: str, **kwargs) -> Scenario:
    """Build a catalog scenario by name, forwarding generator arguments."""
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {list(SCENARIO_BUILDERS)}"
        ) from None
    return builder(**kwargs)


# ----------------------------------------------------------------------
# Environment application
# ----------------------------------------------------------------------
def degrade_cluster(cluster: ClusterSpec, step: RunStep) -> ClusterSpec:
    """The baseline cluster under one step's environment deviations."""
    # The factors are exact 1.0 defaults, never computed: equality is the
    # "no deviation" sentinel, not a tolerance test.
    if (
        step.core_factor == 1.0  # repro: allow[float-eq]
        and step.disk_factor == 1.0  # repro: allow[float-eq]
        and step.network_factor == 1.0  # repro: allow[float-eq]
        and step.lost_workers == 0
    ):
        return cluster
    node = replace(
        cluster.node,
        core_speed=cluster.node.core_speed * step.core_factor,
        disk_mb_per_s=cluster.node.disk_mb_per_s * step.disk_factor,
        network_mb_per_s=cluster.node.network_mb_per_s * step.network_factor,
    )
    return replace(
        cluster,
        node=node,
        worker_count=max(1, cluster.worker_count - step.lost_workers),
    )


def shift_application_skew(app: Application, shift: float) -> Application:
    """The application with every stage's partition skew shifted.

    Skew drives both the reduce-side straggler model and the per-task
    locality overhead, so shifting it end to end reproduces a changed
    key distribution without touching data volumes.
    """
    if shift == 0.0:  # repro: allow[float-eq] -- the exact "no shift" default
        return app
    queries = tuple(
        Query(
            name=q.name,
            category=q.category,
            stages=tuple(
                replace(s, skew=float(np.clip(s.skew + shift, 0.0, 1.0)))
                for s in q.stages
            ),
        )
        for q in app.queries
    )
    return Application(name=app.name, queries=queries, description=app.description)


class DriftingSimulator(SparkSQLSimulator):
    """A simulator whose environment follows a scenario step.

    Hand one of these to a tuner (it satisfies the
    :class:`~repro.sparksim.engine.SparkSQLSimulator` interface, and
    :attr:`space` stays the *baseline* cluster's configuration space)
    and advance it with :meth:`set_step`: every ``run`` then executes
    under the current step's degraded cluster and skew-shifted plan.
    This is what makes drift benchmarks honest — a drift-triggered
    retune must collect its samples from the *drifted* environment,
    exactly as a real re-tuning session would run on the degraded
    cluster.
    """

    def __init__(self, cluster: ClusterSpec, noise: float = 0.04):
        super().__init__(cluster, noise=noise)
        self._step: RunStep | None = None
        self._simulators: dict[tuple, SparkSQLSimulator] = {}
        self._shifted_apps: dict[tuple, Application] = {}

    def set_step(self, step: RunStep | None) -> None:
        """Pin the environment of every subsequent ``run`` (None = baseline)."""
        self._step = step

    def _shifted(self, app: Application, shift: float) -> Application:
        """Skew-shifted plan, cached per (plan identity, shift).

        A tuning session runs the same application (or the same RQA
        subset — rebuilt per trial, but identical in name and query
        list) hundreds of times per environment; rebuilding every
        Query/Stage dataclass per run would dominate the adapter.
        """
        if shift == 0.0:  # repro: allow[float-eq] -- the exact "no shift" default
            return app
        key = (round(shift, 9), app.name, tuple(app.query_names))
        if key not in self._shifted_apps:
            self._shifted_apps[key] = shift_application_skew(app, shift)
        return self._shifted_apps[key]

    def run(self, app, config, datasize_gb, rng=None):
        step = self._step
        if step is None:
            return super().run(app, config, datasize_gb, rng=rng)
        key = step.environment_key()
        if key not in self._simulators:
            self._simulators[key] = SparkSQLSimulator(
                degrade_cluster(self.cluster, step), noise=self.noise
            )
        return self._simulators[key].run(
            self._shifted(app, step.skew_shift), config, datasize_gb, rng=rng
        )


class ScenarioStream:
    """Measured production durations for a scenario, step by step.

    ``measure(step, config)`` runs ``config`` under the step's
    environment and returns the full-application duration — what a
    production client would report to ``POST /apps/<id>/observe``.
    Simulators are cached per distinct environment (a scenario has few:
    baseline plus the drifted states), and every step derives its own
    RNG from ``(seed, step.index)``, so a measurement depends only on
    the step and the configuration, never on execution order.

    ``trace`` is an optional :class:`~repro.replay.trace.ReplayTrace`:
    when set, every measurement records a trace step carrying the exact
    ``(seed, step.index)`` RNG key it consumed, the step's environment
    factors, and the measured duration — re-running the simulator with
    that key under the rebuilt environment reproduces the measurement
    bit for bit (pinned by test).
    """

    def __init__(
        self,
        scenario: Scenario,
        app: Application,
        cluster: ClusterSpec,
        noise: float = 0.04,
        seed: int = 0,
        trace=None,
    ):
        self.scenario = scenario
        self.app = app
        self.cluster = cluster
        self.noise = noise
        self.seed = int(seed)
        self.trace = trace
        self._environments: dict[tuple, tuple[SparkSQLSimulator, Application]] = {}

    def environment(self, step: RunStep) -> tuple[SparkSQLSimulator, Application]:
        """The (simulator, application) pair for one step's environment."""
        key = step.environment_key()
        if key not in self._environments:
            simulator = SparkSQLSimulator(
                degrade_cluster(self.cluster, step), noise=self.noise
            )
            self._environments[key] = (
                simulator,
                shift_application_skew(self.app, step.skew_shift),
            )
        return self._environments[key]

    def measure(self, step: RunStep, config) -> float:
        """Full-application duration of ``config`` under ``step``."""
        simulator, app = self.environment(step)
        rng_key = (self.seed, step.index)
        rng = ensure_rng(rng_key)
        duration = float(
            simulator.run(app, config, step.datasize_gb, rng=rng).duration_s
        )
        if self.trace is not None:
            self.trace.record(
                datasize_gb=step.datasize_gb,
                duration_s=duration,
                rng_key=rng_key,
                config=config,
                environment=step,
            )
        return duration


__all__ = [
    "DriftingSimulator",
    "RunStep",
    "Scenario",
    "ScenarioStream",
    "SCENARIO_BUILDERS",
    "abrupt_skew_drift",
    "build_scenario",
    "cluster_degradation",
    "datasize_random_walk",
    "degrade_cluster",
    "gradual_skew_drift",
    "list_scenarios",
    "node_loss",
    "shift_application_skew",
    "stable",
]
