"""Thread-pool job scheduler with per-application serialization.

Tuning jobs from different tenants run concurrently on a small worker
pool; jobs for the same application run strictly in submission order
(the drift window in :class:`~repro.core.online.OnlineController` is
order-sensitive, and LOCAT sessions are not reentrant).  Each submitted
job gets a trackable :class:`Job` with the usual lifecycle:

    queued -> running -> done | failed

``GET /jobs/<id>`` serves :meth:`Job.to_json`; a killed scheduler fails
its queued jobs instead of leaving clients waiting forever.

A free worker takes the oldest runnable job across tenants (admission
is ordered by submission number), so no tenant's queue can starve
another's.

Two service-level controls ride on top: ``max_pending`` bounds the
queued backlog (:class:`SchedulerSaturatedError` -> HTTP 429 with a
``Retry-After`` hint, instead of unbounded queuing), and :meth:`drain`
is the graceful-shutdown path — refuse new work, *complete* everything
already accepted — used by sharded workers so accepted observations are
never dropped.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_DONE = "done"
STATUS_FAILED = "failed"


class SchedulerSaturatedError(RuntimeError):
    """The scheduler's pending queue is full; the caller should back off.

    Raised by :meth:`JobScheduler.submit` when ``max_pending`` is set and
    that many jobs are already queued (not yet running).  Carries a
    ``retry_after_s`` hint — the estimated time for the backlog to drain,
    from an exponentially-weighted average of recent job service times —
    which the HTTP layer forwards as a ``Retry-After`` header on the 429
    response instead of letting clients guess.
    """

    def __init__(self, pending: int, max_pending: int, retry_after_s: float):
        super().__init__(
            f"scheduler saturated: {pending} jobs already pending "
            f"(bound {max_pending}); retry in ~{retry_after_s:.0f}s"
        )
        self.pending = pending
        self.max_pending = max_pending
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """One unit of work bound to an application."""

    job_id: str
    app_id: str
    kind: str
    fn: Callable[[], Any] | None  # cleared on completion to free the closure
    seq: int = 0  # monotone submission number (admission ordering)
    status: str = STATUS_QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: Any = None
    error: str | None = None
    done_event: threading.Event = field(default_factory=threading.Event)
    #: The owning scheduler's lock; snapshots of the mutable lifecycle
    #: fields are taken under it so an HTTP thread can never observe a
    #: half-written transition (e.g. ``status == "done"`` with
    #: ``finished_at`` still None) while a worker completes the job.
    scheduler_lock: threading.Lock | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def finished(self) -> bool:
        return self.status in (STATUS_DONE, STATUS_FAILED)

    def wait(self, timeout: float | None = None) -> bool:
        return self.done_event.wait(timeout)

    def to_json(self) -> dict:
        """JSON-safe view (the result itself is attached by the server)."""
        if self.scheduler_lock is not None:
            with self.scheduler_lock:
                return self._to_json_locked()
        return self._to_json_locked()

    def _to_json_locked(self) -> dict:
        return {
            "job_id": self.job_id,
            "app_id": self.app_id,
            "kind": self.kind,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }


class JobScheduler:
    """N worker threads over per-application FIFO queues.

    The service is long-lived, so finished jobs are not kept forever:
    only the most recent ``max_finished`` stay queryable, older ones are
    evicted (``get`` then raises ``KeyError``, which the HTTP layer maps
    to 404).
    """

    def __init__(
        self,
        n_workers: int = 4,
        max_finished: int = 1000,
        max_pending: int | None = None,
        job_id_prefix: str = "",
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if max_finished < 1:
            raise ValueError("max_finished must be at least 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.max_finished = max_finished
        #: Backpressure bound: queued-but-not-running jobs beyond this
        #: are refused with :class:`SchedulerSaturatedError` instead of
        #: growing the queue without limit.  ``None`` keeps the legacy
        #: unbounded behavior.
        self.max_pending = None if max_pending is None else int(max_pending)
        #: Prepended to every job id.  A sharded deployment gives each
        #: worker a distinct prefix (``w0-``, ``w1-``, ...) so the
        #: front end can route ``GET /jobs/<id>`` back to the worker
        #: that owns the job; the single-worker service keeps the empty
        #: prefix and therefore the legacy ``job-000001`` ids.
        self.job_id_prefix = str(job_id_prefix)
        #: EWMA of job service times, feeding the Retry-After hint.
        self._avg_service_s = 1.0  # guarded-by: _lock, _cond
        self._lock = threading.Lock()
        #: The condition wraps ``_lock``: entering either acquires the
        #: same mutex, so both names are listed as valid guards below.
        self._cond = threading.Condition(self._lock)
        self._queues: dict[str, deque[Job]] = {}  # guarded-by: _lock, _cond
        self._busy: set[str] = set()  # guarded-by: _lock, _cond
        self._jobs: dict[str, Job] = {}  # guarded-by: _lock, _cond
        self._finished: deque[str] = deque()  # guarded-by: _lock, _cond
        self._counter = itertools.count(1)  # guarded-by: _lock, _cond
        self._shutdown = False  # guarded-by: _lock, _cond
        self._draining = False  # guarded-by: _lock, _cond
        self._workers = [
            threading.Thread(target=self._worker, name=f"tuning-worker-{i}", daemon=True)
            for i in range(n_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, app_id: str, fn: Callable[[], Any], kind: str = "job") -> Job:
        """Queue ``fn`` behind any earlier jobs of the same application."""
        with self._cond:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            if self._draining:
                raise RuntimeError("scheduler is draining (service shutting down)")
            if self.max_pending is not None:
                pending = sum(len(queue) for queue in self._queues.values())
                if pending >= self.max_pending:
                    # Backlog drains at roughly one job per avg service
                    # time per worker thread.
                    hint = pending * self._avg_service_s / len(self._workers)
                    raise SchedulerSaturatedError(
                        pending, self.max_pending, min(max(hint, 1.0), 60.0)
                    )
            number = next(self._counter)
            job = Job(
                job_id=f"{self.job_id_prefix}job-{number:06d}",
                app_id=app_id,
                kind=kind,
                fn=fn,
                seq=number,
                scheduler_lock=self._lock,
            )
            self._jobs[job.job_id] = job
            self._queues.setdefault(app_id, deque()).append(job)
            self._cond.notify_all()
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def jobs(self, app_id: str | None = None) -> list[Job]:
        """All tracked jobs in submission order, optionally per app."""
        with self._lock:
            out = list(self._jobs.values())
        if app_id is not None:
            out = [j for j in out if j.app_id == app_id]
        return out

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until a job finishes; raises TimeoutError on timeout."""
        job = self.get(job_id)
        if not job.wait(timeout):
            raise TimeoutError(f"job {job_id} still {job.status} after {timeout}s")
        return job

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work and wait for every accepted job to finish.

        Unlike :meth:`shutdown`, queued jobs are *completed*, not failed
        — this is the graceful path a sharded worker takes on shutdown
        so accepted observations are never dropped on the floor.  New
        submissions are refused from the moment drain begins.  Returns
        True when the queue emptied, False on timeout (jobs may still be
        running); either way the scheduler no longer accepts work.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._draining = True
            while any(self._queues.values()) or self._busy:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; queued jobs fail, the running ones finish."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            for queue in self._queues.values():
                for job in queue:
                    job.status = STATUS_FAILED
                    job.error = "scheduler shut down before the job ran"
                    job.finished_at = time.time()
                    self._finish_locked(job)
                queue.clear()
            self._cond.notify_all()
        if wait:
            for worker in self._workers:
                worker.join()

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _finish_locked(self, job: Job) -> None:
        """Completion bookkeeping: free the closure, evict old jobs."""
        job.fn = None
        job.done_event.set()
        self._finished.append(job.job_id)
        while len(self._finished) > self.max_finished:
            self._jobs.pop(self._finished.popleft(), None)

    def _next_job_locked(self) -> Job | None:
        # The oldest runnable queue head across tenants; a tenant with a
        # job already running waits, keeping its own jobs in FIFO order.
        heads = [
            queue[0] for app_id, queue in self._queues.items()
            if queue and app_id not in self._busy
        ]
        if not heads:
            return None
        job = min(heads, key=lambda j: j.seq)
        self._busy.add(job.app_id)
        self._queues[job.app_id].popleft()
        return job

    def _worker(self) -> None:
        while True:
            with self._cond:
                job = self._next_job_locked()
                while job is None and not self._shutdown:
                    self._cond.wait()
                    job = self._next_job_locked()
                if job is None:
                    return  # shutting down
                job.status = STATUS_RUNNING
                job.started_at = time.time()
                fn = job.fn
            try:
                assert fn is not None  # only cleared after completion
                result = fn()
                error = None
            except Exception:
                result = None
                error = traceback.format_exc(limit=8)
            with self._cond:
                job.result = result
                job.error = error
                job.status = STATUS_FAILED if error else STATUS_DONE
                job.finished_at = time.time()
                if job.started_at is not None:
                    service_s = max(job.finished_at - job.started_at, 1e-4)
                    self._avg_service_s += 0.2 * (service_s - self._avg_service_s)
                self._busy.discard(job.app_id)
                self._finish_locked(job)
                self._cond.notify_all()
