"""Parallel batched evaluation of candidate configurations.

The paper's cost model says sample collection dominates optimization
time: every configuration evaluation is a full (or RQA-reduced) run of
the application on the cluster.  A real cluster — and the simulator on a
multi-core box — can execute several candidate configurations at once,
so the batched BO loop (``BOLoop(batch_size=q)``) hands each refit's
``q`` proposals to a :class:`ParallelEvaluator` instead of running them
one at a time.

The surrogate side of a batch is no longer the multiplier it used to
be: the greedy constant-liar construction of those ``q`` proposals now
extends a point-estimate copy of the iteration's surrogate with one
exact rank-1 Cholesky update per lie (see
:meth:`repro.core.dagp.DatasizeAwareGP.point_estimate_copy`), so the
per-batch modelling cost is O(q n^2) instead of q from-scratch O(n^3)
refits — the evaluator's workers, not the liar refits, bound batch
throughput.

Determinism contract:

* ``n_workers=1`` runs each request through the objective's serial
  ``run``/``run_subset`` path — the shared RNG is consumed in exactly
  the same order as before this module existed, so seeded serial
  trajectories are reproduced bit for bit.
* ``n_workers>1`` draws one child generator per request from the shared
  objective RNG *in submission order* (a single ``spawn`` call), runs
  the requests concurrently, and records the trials in submission
  order.  The resulting history is therefore a pure function of the
  seed and the request list — identical for 2, 4, or 16 workers and
  across repeated runs — only the wall-clock changes.

Failure semantics: the serial path records trials incrementally (as the
objective always has); a concurrent batch is atomic — if any request
raises, no trial of that batch is recorded and the first error
propagates.

Pool lifecycle: the executor is created lazily on the first concurrent
batch and reused for the whole tuning session (per-refit startup would
be pure waste).  :meth:`close` is
idempotent and leaves the evaluator usable — a later batch simply
recreates the pool — which is how :meth:`LOCAT.tune` avoids leaking
``n_workers`` threads per tenant between the rare tuning sessions of a
long-lived service.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.datasize import normalize_datasize
from repro.core.objective import SparkSQLObjective, Trial, execute_trial
from repro.sparksim.configspace import Configuration
from repro.sparksim.engine import SparkSQLSimulator
from repro.sparksim.query import Application
from repro.stats.sampling import spawn


@dataclass(frozen=True)
class EvalRequest:
    """One evaluation to perform: a configuration at a datasize.

    ``queries=None`` runs the full application; a tuple of query names
    runs only that subset (the RQA path).
    """

    config: Configuration
    datasize_gb: float
    queries: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "datasize_gb", normalize_datasize(self.datasize_gb))
        if self.queries is not None:
            object.__setattr__(self, "queries", tuple(self.queries))


def _execute_request(
    simulator: SparkSQLSimulator,
    app: Application,
    request: EvalRequest,
    rng: np.random.Generator,
) -> Trial:
    """Run one request on its own generator, without recording it."""
    return execute_trial(
        simulator, app, request.config, request.datasize_gb, request.queries, rng=rng
    )


class ParallelEvaluator:
    """Fans batches of evaluations across a worker pool.

    Wraps one :class:`~repro.core.objective.SparkSQLObjective`; all
    recording still goes through the objective, so ``history`` and
    ``overhead_s`` stay the single source of truth and remain
    append-ordered by submission.  Workers are threads sharing the
    simulator: cheap, and the right model for evaluations that wait on
    a cluster.
    """

    def __init__(self, objective: SparkSQLObjective, n_workers: int = 1):
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.objective = objective
        self.n_workers = int(n_workers)
        self._pool: ThreadPoolExecutor | None = None  # created lazily, reused across batches

    def _run_serial(self, request: EvalRequest) -> Trial:
        if request.queries is None:
            return self.objective.run(request.config, request.datasize_gb)
        return self.objective.run_subset(request.config, request.datasize_gb, list(request.queries))

    def _get_pool(self) -> ThreadPoolExecutor:
        """The shared executor, created on first concurrent batch.

        One pool serves the whole tuning session — a session at
        ``batch_size=q`` submits a batch per surrogate refit, and paying
        worker startup per refit would be pure waste.
        """
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="eval-worker"
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down. Idempotent; the evaluator remains
        usable (a later batch lazily recreates the pool)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_batch(self, requests: list[EvalRequest]) -> list[Trial]:
        """Evaluate ``requests`` and record every trial in request order.

        Returns the trials in request order regardless of completion
        order.  With one worker (or one request) this is exactly the
        serial path, shared RNG and all.
        """
        requests = list(requests)
        if not requests:
            return []
        if self.n_workers == 1 or len(requests) == 1:
            return [self._run_serial(r) for r in requests]

        # One child generator per request, drawn in submission order from
        # the shared RNG: the histories are a function of the seed and the
        # request list only, never of worker count or completion order.
        rngs = spawn(self.objective.rng, len(requests))
        pool = self._get_pool()
        simulator, app = self.objective.simulator, self.objective.app
        futures = [
            pool.submit(_execute_request, simulator, app, request, rng)
            for request, rng in zip(requests, rngs)
        ]
        trials = [future.result() for future in futures]
        for trial in trials:
            self.objective.record(trial)
        return trials
