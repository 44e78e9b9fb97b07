"""CRN replay evaluation: score candidates on fixed resampled replays.

Independent Monte Carlo is the wrong tool for *comparing* candidate
configurations: each fresh evaluation pays a fresh environment draw, so
budgets end up sized for noise, not information.  The replay evaluator
fixes the draws instead.  At construction it bootstrap-resamples the
tenant's :class:`~repro.replay.trace.ReplayTrace` into ``n_replays``
replay slots — the *same* slots for every candidate — and measuring a
candidate on slot ``j`` reruns the simulator with the recorded step's
exact RNG seed key.  Two candidates measured on the same slot therefore
share their environment draw, their paired log-delta cancels the common
noise, and a percentile bootstrap over those deltas
(:mod:`repro.stats.abtest`) separates candidates with a handful of
replays where independent draws would need dozens of live runs.

Every measurement goes straight to the simulator, deliberately bypassing
the tuner's :class:`~repro.core.objective.SparkSQLObjective`, so replay
scoring never inflates evaluation counts, trial history, or overhead
accounting — replays are free rescoring of recorded history, not new
samples.  Identical (configuration, datasize, replay slot, query subset)
requests within a session are memoized; hit/miss counters surface in
:meth:`stats`.
"""

from __future__ import annotations

from repro.replay.trace import DEFAULT_N_REPLAYS, REPLAY_SEED_SALT, ReplayTrace, TraceStep
from repro.sparksim.serialize import canonical_key
from repro.stats.sampling import ensure_rng


class ReplayEvaluator:
    """Scores configurations against fixed bootstrap replays of a trace.

    ``simulator``/``app`` are the tuner's own (so replays run under the
    *current* environment — a drift retune must rank candidates on the
    degraded cluster); ``trace`` supplies the recorded steps; ``seed``
    fixes the bootstrap resample, so one evaluator instance pins one set
    of replay slots for its whole session.
    """

    def __init__(
        self,
        simulator,
        app,
        trace: ReplayTrace,
        n_replays: int = DEFAULT_N_REPLAYS,
        seed: int = 0,
    ):
        if n_replays < 1:
            raise ValueError("n_replays must be at least 1")
        steps = trace.steps
        if not steps:
            raise ValueError("cannot build a replay evaluator from an empty trace")
        self.simulator = simulator
        self.app = app
        rng = ensure_rng((REPLAY_SEED_SALT, int(seed)))
        picks = rng.integers(0, len(steps), size=int(n_replays))
        #: The replay slots: a fixed bootstrap resample of the trace,
        #: identical for every candidate this evaluator scores.
        self.replays: tuple[TraceStep, ...] = tuple(steps[int(i)] for i in picks)
        self._cache: dict[tuple, float] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.n_sim_runs = 0

    # ------------------------------------------------------------------
    @property
    def n_replays(self) -> int:
        return len(self.replays)

    def _measure(
        self,
        config,
        config_key: str,
        target,
        step: TraceStep,
        queries: tuple[str, ...] | None,
        datasize_gb: float | None,
    ) -> float:
        """One (config, replay slot) duration, memoized per session;
        ``config_key`` is ``canonical_key(config)`` and ``target`` the
        application ``queries`` select, both built once per candidate by
        the caller."""
        ds = step.datasize_gb if datasize_gb is None else float(datasize_gb)
        key = (config_key, step.index, step.rng_key, round(ds, 9), queries)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        self.n_sim_runs += 1
        # The recorded seed key verbatim: the replayed draw is the run's
        # historical stream bit for bit, shared by every candidate.
        metrics = self.simulator.run(target, config, ds, rng=step.rng_key)
        duration = float(metrics.duration_s)
        self._cache[key] = duration
        return duration

    # ------------------------------------------------------------------
    def durations(
        self,
        config,
        queries: list[str] | tuple[str, ...] | None = None,
        datasize_gb: float | None = None,
    ) -> list[float]:
        """Per-replay durations of ``config`` over every replay slot.

        ``queries`` restricts execution to the RQA subset (the cheap
        path BO scoring uses); ``datasize_gb=None`` runs each replay at
        its recorded step's datasize, a pinned value runs all replays at
        that size (what a retune targeting one operating point wants).
        """
        qnames = None if queries is None else tuple(queries)
        target = self.app if qnames is None else self.app.subset(list(qnames))
        key = canonical_key(config)
        return [
            self._measure(config, key, target, step, qnames, datasize_gb)
            for step in self.replays
        ]

    def mean_duration(
        self,
        config,
        queries: list[str] | tuple[str, ...] | None = None,
        datasize_gb: float | None = None,
    ) -> float:
        """Mean replay duration — the low-variance score BO optimizes."""
        times = self.durations(config, queries=queries, datasize_gb=datasize_gb)
        return float(sum(times) / len(times))

    def stats(self) -> dict:
        """Session counters (surfaced in ``TuningResult.details``)."""
        return {
            "n_replays": self.n_replays,
            "sim_runs": self.n_sim_runs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


__all__ = ["ReplayEvaluator"]
