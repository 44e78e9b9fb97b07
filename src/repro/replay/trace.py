"""Per-tenant replay traces: the recorded history candidates replay against.

A :class:`TraceStep` snapshots what one production run *was*: its
datasize, the environment it ran under (the same multiplicative factors
a :class:`~repro.sparksim.scenarios.RunStep` carries), the measured
duration, a short fingerprint of the configuration that ran, and — the
load-bearing field — the exact RNG seed key whose generator produced the
run's environment draw.  Replaying a step means handing that key back to
:meth:`SparkSQLSimulator.run <repro.sparksim.engine.SparkSQLSimulator.run>`,
which pins the noise stream bit for bit: two candidate configurations
replayed against the same step share their environment draw, so their
paired difference cancels the common noise (common random numbers).

:class:`ReplayTrace` is a bounded ring of the most recent steps.  The
bound keeps replays representative of the *current* workload (an
old-regime step replayed after drift would vote for stale candidates).
Step indices are monotonic across the ring — a dropped prefix never
recycles an index, so derived RNG keys never collide.  Nothing here is
persisted: the service rebuilds a tenant's trace from the production
rows of its run table.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

#: Seed-key namespace for every replay-derived generator.  Disjoint from
#: the shadow gate's ``SHADOW_SEED_SALT`` (0x5AB0) so replay draws can
#: never collide with shadow CRN draws for the same tenant.
REPLAY_SEED_SALT = 0x3EBA

#: Accepted ``replay_eval`` modes: ``"off"`` (bit-for-bit historic
#: behaviour) and ``"race"`` (CRN replay scoring + racing elimination).
REPLAY_EVAL_MODES = ("off", "race")

#: Default ring capacity: enough steps to bootstrap from, small enough
#: that replays track the recent workload regime.
DEFAULT_TRACE_CAPACITY = 64

#: Minimum recorded steps before replay evaluation engages; below this a
#: bootstrap resample of the trace is too degenerate to rank candidates.
MIN_TRACE_STEPS = 3

#: Default replay slots per evaluator: enough pairs for a stable
#: percentile bootstrap, cheap enough to rescore dozens of candidates.
DEFAULT_N_REPLAYS = 12


def config_fingerprint(config) -> str:
    """Short stable fingerprint of a configuration for trace records.

    Derived from the canonical key (see
    :func:`repro.sparksim.serialize.canonical_key`), so logically equal
    configurations — across float round trips and process restarts —
    fingerprint identically.  12 hex chars is plenty for a per-tenant
    trace; the field is provenance, not a lookup key.
    """
    from repro.sparksim.serialize import canonical_key

    digest = hashlib.sha1(repr(canonical_key(config)).encode("utf-8")).hexdigest()
    return digest[:12]


@dataclass(frozen=True)
class TraceStep:
    """One recorded production run.

    ``rng_key`` is the seed key (a tuple of ints, as accepted by
    :func:`numpy.random.default_rng`) that reproduces the run's
    environment draw exactly; ``duration_s`` is the measured
    full-application duration (None when the client reported none);
    ``config_key`` fingerprints the configuration that ran (None when
    unknown).  The environment factors mirror
    :class:`~repro.sparksim.scenarios.RunStep` with identical defaults.
    """

    index: int
    datasize_gb: float
    rng_key: tuple[int, ...]
    duration_s: float | None = None
    config_key: str | None = None
    skew_shift: float = 0.0
    core_factor: float = 1.0
    disk_factor: float = 1.0
    network_factor: float = 1.0
    lost_workers: int = 0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("index must be non-negative")
        if self.datasize_gb <= 0:
            raise ValueError("datasize_gb must be positive")
        if not self.rng_key:
            raise ValueError("rng_key must be a non-empty tuple of ints")
        object.__setattr__(
            self, "rng_key", tuple(int(s) for s in self.rng_key)
        )


class ReplayTrace:
    """A bounded ring of the most recent :class:`TraceStep` records."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY, first_index: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self._steps: deque[TraceStep] = deque(maxlen=self.capacity)
        self._next_index = int(first_index)

    # ------------------------------------------------------------------
    @property
    def steps(self) -> tuple[TraceStep, ...]:
        """The retained steps, oldest first."""
        return tuple(self._steps)

    @property
    def n_steps(self) -> int:
        """Retained step count (at most ``capacity``)."""
        return len(self._steps)

    @property
    def next_index(self) -> int:
        """The index the next recorded step will get (monotonic across
        ring drops — never recycled).  A trace rebuilt after a restart
        starts at ``first_index``, the count of production runs older
        than its first step."""
        return self._next_index

    def __len__(self) -> int:
        return len(self._steps)

    # ------------------------------------------------------------------
    def record(
        self,
        datasize_gb: float,
        duration_s: float | None = None,
        rng_key: tuple[int, ...] | None = None,
        config=None,
        environment=None,
    ) -> TraceStep:
        """Append a step for one production run and return it.

        ``rng_key`` is the exact seed key whose generator drew the run's
        environment noise (a :class:`~repro.sparksim.scenarios.ScenarioStream`
        passes its ``(seed, step.index)`` key); when the caller has no
        real draw — a production observe that only reports a duration —
        a deterministic ``(REPLAY_SEED_SALT, index)`` key is derived, so
        the step still replays with a fixed, never-recycled stream.
        ``environment`` is any object with RunStep-shaped factor
        attributes (missing attributes fall back to the healthy
        baseline).
        """
        index = self._next_index
        if rng_key is None:
            rng_key = (REPLAY_SEED_SALT, index)
        env = environment
        step = TraceStep(
            index=index,
            datasize_gb=float(datasize_gb),
            rng_key=tuple(int(s) for s in rng_key),
            duration_s=None if duration_s is None else float(duration_s),
            config_key=None if config is None else config_fingerprint(config),
            skew_shift=float(getattr(env, "skew_shift", 0.0)),
            core_factor=float(getattr(env, "core_factor", 1.0)),
            disk_factor=float(getattr(env, "disk_factor", 1.0)),
            network_factor=float(getattr(env, "network_factor", 1.0)),
            lost_workers=int(getattr(env, "lost_workers", 0)),
        )
        self._steps.append(step)
        self._next_index += 1
        return step


__all__ = [
    "DEFAULT_N_REPLAYS",
    "DEFAULT_TRACE_CAPACITY",
    "MIN_TRACE_STEPS",
    "REPLAY_EVAL_MODES",
    "REPLAY_SEED_SALT",
    "ReplayTrace",
    "TraceStep",
    "config_fingerprint",
]
