"""Replay-based low-variance candidate evaluation.

Three pieces, wired through :meth:`LOCAT.adapt
<repro.core.locat.LOCAT.adapt>`, the promotion gate, and the service:

* :mod:`~repro.replay.trace` — per-tenant recorded history (query mix,
  datasizes, environment state, exact per-step RNG seed keys), which the
  service rebuilds from the run table's production rows;
* :mod:`~repro.replay.evaluator` — score every candidate against the
  *same* bootstrap-resampled replays of that trace under common random
  numbers, with paired-bootstrap comparisons;
* :mod:`~repro.replay.racing` — successive-halving elimination of
  candidates whose paired CI against the running best excludes zero.

``replay_eval="off"`` (the default everywhere) keeps every existing
trajectory bit for bit.  Every tenant carries a trace, so this package
re-exports the trace module; the evaluator and the race load only on the
race path, from their own modules.
"""

from repro.replay.trace import (
    DEFAULT_N_REPLAYS,
    DEFAULT_TRACE_CAPACITY,
    MIN_TRACE_STEPS,
    REPLAY_EVAL_MODES,
    REPLAY_SEED_SALT,
    ReplayTrace,
    TraceStep,
    config_fingerprint,
)

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
