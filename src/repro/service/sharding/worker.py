"""Worker lifecycle for the sharded tuning service.

Each shard is one child process running a full
:class:`~repro.service.server.TuningService` over that shard's store
directory.  The parent supervises: it spawns the process, waits for a
readiness handshake carrying the worker's ephemeral port, notices when
the process dies, and restarts it — the replacement rehydrates every
tenant from the shard's on-disk store, so a crash costs availability,
never state.  Shutdown drains: the supervisor asks each worker to
finish its queued jobs (``POST /admin/drain``) before the process
exits.

Workers run on the ``fork`` start method where available so that
``service_factory`` callables (benchmarks injecting a slow store, tests
injecting failure modes) cross into the child without needing to be
importable/picklable.
"""

from __future__ import annotations

import http.client
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.service.server import TuningService

#: How long a freshly spawned worker may take to report readiness.
#: Rehydrating many tenants from disk happens inside this window.
START_TIMEOUT_S = 60.0

#: How long a drained worker may take to finish queued jobs and exit.
DRAIN_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything needed to (re)build one shard's service process."""

    shard: int
    store_dir: str
    tuning_threads: int = 4
    default_warm_start: str = "cold"
    replay_eval: str = "off"
    max_pending: int | None = None
    log_requests: bool = False
    #: Job-id namespace, e.g. ``"w2-"`` — empty for single-worker mode
    #: so ids stay byte-identical to the unsharded service.
    job_id_prefix: str = ""
    #: Optional override building the worker's service; receives this
    #: spec and must return a started-but-not-serving ``TuningService``.
    service_factory: Callable[["WorkerSpec"], TuningService] | None = field(
        default=None, compare=False
    )


def default_service(spec: WorkerSpec) -> TuningService:
    """Build the standard per-shard service for a worker spec."""
    return TuningService(
        spec.store_dir,
        host="127.0.0.1",
        port=0,
        n_workers=spec.tuning_threads,
        rehydrate=True,
        default_warm_start=spec.default_warm_start,
        replay_eval=spec.replay_eval,
        max_pending=spec.max_pending,
        log_requests=spec.log_requests,
        admin=True,
        job_id_prefix=spec.job_id_prefix,
    )


def _worker_main(spec: WorkerSpec, conn) -> None:
    """Child-process entry point: serve the shard until drained."""
    try:
        factory = spec.service_factory or default_service
        service = factory(spec)
        service.start()
        conn.send(("ready", service.port))
    except Exception as exc:  # pragma: no cover - startup failure path
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            os._exit(1)
    conn.close()
    # Park until an admin drain completes; the drain handler finishes
    # all queued jobs before setting this event.
    service.drained.wait()
    service.close()


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


class WorkerHandle:
    """One supervised shard process."""

    def __init__(self, spec: WorkerSpec, start_timeout: float = START_TIMEOUT_S):
        self.spec = spec
        self.start_timeout = start_timeout
        self.port: int | None = None
        self._process = None
        self.spawn()

    # ------------------------------------------------------------------
    def spawn(self) -> None:
        """Start (or restart) the shard process and await readiness."""
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main,
            args=(self.spec, child_conn),
            name=f"tuning-worker-{self.spec.shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(self.start_timeout):
            process.terminate()
            raise TimeoutError(
                f"worker {self.spec.shard} did not report ready within "
                f"{self.start_timeout:.0f}s"
            )
        kind, value = parent_conn.recv()
        parent_conn.close()
        if kind != "ready":
            process.join(timeout=5.0)
            raise RuntimeError(f"worker {self.spec.shard} failed to start: {value}")
        self._process = process
        self.port = value

    def is_alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def pid(self) -> int | None:
        return self._process.pid if self._process is not None else None

    # ------------------------------------------------------------------
    def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> bool:
        """Ask the worker to finish queued jobs and exit; join it.

        Returns True on a clean exit; on timeout (or an unreachable
        worker) the process is terminated and False returned.
        """
        clean = False
        if self.is_alive() and self.port is not None:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
                conn.request("POST", "/admin/drain")
                response = conn.getresponse()
                response.read()
                conn.close()
                clean = response.status == 200
            except OSError:
                clean = False
        if self._process is not None:
            self._process.join(timeout=timeout if clean else 5.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5.0)
                if self._process.is_alive():  # pragma: no cover - last resort
                    self._process.kill()
                    self._process.join(timeout=5.0)
                clean = False
        return clean

    def kill(self) -> None:
        """Hard-kill the process (crash injection in tests)."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=10.0)


class WorkerSupervisor:
    """Keeps one live :class:`WorkerHandle` per shard."""

    def __init__(self, specs: list[WorkerSpec], start_timeout: float = START_TIMEOUT_S):
        self.start_timeout = start_timeout
        #: Holding a *per-shard* lock is not enough for the shared
        #: counter: two shards restarting at once would race the
        #: read-modify-write and drop an increment.
        self._restarts_lock = threading.Lock()
        self.restarts = 0  # guarded-by: _restarts_lock
        self._locks = [threading.Lock() for _ in specs]
        self.handles = [WorkerHandle(spec, start_timeout=start_timeout) for spec in specs]

    # ------------------------------------------------------------------
    def ensure(self, shard: int) -> WorkerHandle:
        """The live handle for a shard, restarting the process if dead.

        The per-shard lock makes concurrent proxy threads that all hit
        the same dead worker trigger exactly one restart; the replacement
        rehydrates tenant state from the shard's store before reporting
        ready.
        """
        handle = self.handles[shard]
        if handle.is_alive():
            return handle
        with self._locks[shard]:
            handle = self.handles[shard]
            if not handle.is_alive():
                handle.spawn()
                with self._restarts_lock:
                    self.restarts += 1
                # Brief grace so a just-bound listener is accepting.
                time.sleep(0.01)
            return handle

    def drain_all(self, timeout: float = DRAIN_TIMEOUT_S) -> bool:
        """Drain every worker; True only if all exited cleanly."""
        return all([handle.drain(timeout=timeout) for handle in self.handles])

    def status(self) -> list[dict]:
        """Supervision view, one entry per shard."""
        return [
            {
                "shard": handle.spec.shard,
                "pid": handle.pid,
                "port": handle.port,
                "alive": handle.is_alive(),
            }
            for handle in self.handles
        ]
