"""The tuning service: a stdlib JSON-over-HTTP front end.

Endpoints (all request/response bodies are JSON):

    GET  /healthz                 liveness probe
    GET  /apps                    list registered applications
    POST /apps                    register: {"app_id", "benchmark",
                                  "cluster"?, "seed"?, "tuner"?,
                                  "controller"?, "warm_start"?
                                  ("cold" | "transfer": seed the first
                                  bootstrap from the most similar
                                  existing tenant's history)}
    GET  /apps/<id>               session status
    POST /apps/<id>/observe       {"datasize_gb", "duration_s"?,
                                  "wait"?}; wait=false returns 202 with
                                  a job id, wait=true (default) blocks
                                  and returns the decision
    POST /apps/<id>/observe_batch {"observations": [{"datasize_gb",
                                  "duration_s"?}, ...], "wait"?}; lands
                                  the whole batch through one store
                                  lock acquisition and one fsync
    GET  /apps/<id>/config        the deployed configuration (raw
                                  values, spark properties, and a
                                  rendered spark-defaults.conf)
    GET  /apps/<id>/history       the run table (?source=, ?limit=)
    GET  /jobs                    all jobs (?app=)
    GET  /jobs/<id>               one job, with the decision once done
    POST /admin/drain             (only with ``admin=True``) finish all
                                  queued work, then signal shutdown —
                                  used by the sharded supervisor

When the scheduler backlog exceeds ``max_pending`` the service answers
429 with a ``Retry-After`` hint instead of queuing without bound.


Built on :class:`http.server.ThreadingHTTPServer` — one thread per
request, so a blocking ``observe`` does not starve status queries, while
the :class:`~repro.service.scheduler.JobScheduler` keeps actual tuning
work on its bounded worker pool with per-app ordering.
"""

from __future__ import annotations

import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.export import to_spark_defaults_conf, to_spark_properties
from repro.core.online import OnlineDecision
from repro.service.registry import QuarantinedApplicationError, TuningRegistry
from repro.service.scheduler import JobScheduler, SchedulerSaturatedError
from repro.service.store import CorruptRunTableError, HistoryStore
from repro.sparksim.serialize import config_to_dict

#: Cap on how long a ``wait=true`` observe may block the HTTP thread.
MAX_WAIT_S = 600.0

#: Cap on how many observations one ``observe_batch`` request may carry.
MAX_BATCH = 1000


def decision_to_json(decision: OnlineDecision) -> dict:
    """JSON-safe view of one controller decision."""
    duration = decision.duration_s
    payload = {
        "datasize_gb": decision.datasize_gb,
        "duration_s": None if math.isnan(duration) else duration,
        "retuned": decision.retuned,
        "reason": decision.reason,
        "trigger": decision.trigger,
        "config": config_to_dict(decision.config),
    }
    if decision.result is not None:
        result = decision.result
        payload["tuning"] = {
            "best_duration_s": result.best_duration_s,
            "overhead_hours": result.overhead_hours,
            "evaluations": result.evaluations,
        }
    if decision.promotion is not None:
        payload["promotion"] = decision.promotion
    return payload


class _HTTPError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _bad_duration(duration_s: float | None) -> bool:
    """Whether a reported run duration is unusable: NaN, infinite or not positive.

    Such a value would be written to the run table durably and skew the
    drift detector, so it is rejected before anything is queued.
    """
    return duration_s is not None and not (math.isfinite(duration_s) and duration_s > 0)


class TuningService:
    """Store + registry + scheduler behind one HTTP server."""

    def __init__(
        self,
        store_dir: str,
        host: str = "127.0.0.1",
        port: int = 8080,
        n_workers: int = 4,
        eval_workers: int = 1,
        rehydrate: bool = True,
        default_warm_start: str = "cold",
        default_replay_eval: str = "off",
        max_pending: int | None = None,
        log_requests: bool = False,
        admin: bool = False,
        job_id_prefix: str = "",
        store_factory=None,
    ):
        """``n_workers`` bounds concurrent tuning jobs across tenants;
        ``eval_workers`` is the per-session evaluation parallelism given
        to tenants that do not set ``tuner.n_workers`` themselves.  The
        scheduler's slot budget is ``n_workers * eval_workers`` and
        tenant ``tuner.n_workers`` overrides are clamped to it, so the
        machine never runs more evaluations at once than the operator
        provisioned.  ``default_warm_start`` applies to registrations
        that do not pick a mode themselves ("cold" or "transfer");
        ``default_replay_eval`` turns on trace-replay candidate
        evaluation for tenants that do not set ``tuner.replay_eval``
        ("off" or "race" — see :mod:`repro.replay`).

        ``max_pending`` bounds the scheduler's queued backlog: beyond it
        submissions answer 429 with a ``Retry-After`` hint instead of
        queuing without limit.  ``log_requests=False`` (the default)
        silences ``BaseHTTPRequestHandler``'s per-request stderr access
        log — at load-test rates the synchronized stderr writes are
        themselves a bottleneck.  ``admin=True`` enables the worker-only
        ``POST /admin/drain`` endpoint used by the sharded supervisor
        for graceful shutdown; ``job_id_prefix`` namespaces job ids so a
        front end can route them back (see
        :mod:`repro.service.sharding`).  ``store_factory`` substitutes a
        :class:`HistoryStore` subclass (tests, benchmarks emulating
        slow durable storage)."""
        total_slots = n_workers * max(int(eval_workers), 1)
        self.store = (store_factory or HistoryStore)(store_dir)
        self.registry = TuningRegistry(
            self.store,
            rehydrate=rehydrate,
            default_eval_workers=eval_workers,
            max_eval_workers=total_slots,
            default_warm_start=default_warm_start,
            default_replay_eval=default_replay_eval,
        )
        self.scheduler = JobScheduler(
            n_workers=n_workers,
            total_slots=total_slots,
            max_pending=max_pending,
            job_id_prefix=job_id_prefix,
        )
        self.log_requests = bool(log_requests)
        self.admin_enabled = bool(admin)
        #: Set once an admin drain completed; a supervised worker's main
        #: loop waits on it, closes the service, and exits the process.
        self.drained = threading.Event()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block serving requests (the ``repro serve`` foreground path)."""
        self._httpd.serve_forever()

    def start(self) -> "TuningService":
        """Serve on a background thread (tests, examples, benchmarks)."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="tuning-http", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting requests and stop the workers. Idempotent."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self.scheduler.shutdown(wait=True)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "TuningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on each accepted socket: a reply goes out as a headers
    # write and a body write, and Nagle would hold the body until the
    # client's delayed ACK of the headers, about 40 ms later.
    disable_nagle_algorithm = True
    server: ThreadingHTTPServer  # with .service attached

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def service(self) -> TuningService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Silent by default: at load-test rates the synchronized stderr
        # writes of the stock access log are themselves a bottleneck.
        if self.service.log_requests:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(
        self, payload: dict, status: int = 200, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        # A missing Content-Length really does mean "no body" here.
        length = int(self.headers.get("Content-Length") or 0)  # repro: allow[falsy-zero]
        if length == 0:
            return {}
        try:
            payload = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"bad JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        path, _, query_string = self.path.partition("?")
        query = {}
        for part in query_string.split("&"):
            if "=" in part:
                key, _, value = part.partition("=")
                query[key] = value
        try:
            self._route(method, path.rstrip("/") or "/", query)
        except _HTTPError as exc:
            self._send_json({"error": exc.message}, status=exc.status)
        except CorruptRunTableError as exc:
            # Server-side data integrity, not a malformed request: a
            # 400 would hide the damage from 5xx-based alerting.
            self._send_json({"error": str(exc)}, status=500)
        except QuarantinedApplicationError as exc:
            # The tenant exists but cannot be served until its store is
            # repaired — 503, never a 404 that invites re-registration.
            self._send_json({"error": str(exc)}, status=503)
        except SchedulerSaturatedError as exc:
            # Backpressure, not failure: tell the client when to retry
            # instead of queuing without bound.
            self._send_json(
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                status=429,
                headers={"Retry-After": str(max(int(round(exc.retry_after_s)), 1))},
            )
        except RuntimeError as exc:
            # Scheduler draining / shut down — the worker is going away.
            self._send_json({"error": str(exc)}, status=503)
        except (KeyError, ValueError) as exc:
            status = 404 if isinstance(exc, KeyError) else 400
            self._send_json({"error": str(exc)}, status=status)
        except Exception as exc:  # pragma: no cover - defensive
            self._send_json({"error": f"internal error: {exc}"}, status=500)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, query: dict[str, str]) -> None:
        service = self.service
        if method == "GET" and path == "/healthz":
            self._send_json({"status": "ok", "apps": len(service.registry.app_ids())})
            return
        if path == "/apps":
            if method == "POST":
                self._register(self._read_body())
            else:
                self._send_json(
                    {
                        "apps": [
                            service.registry.get(a).status()
                            for a in service.registry.app_ids()
                        ],
                        # Tenants whose persisted state failed to
                        # rehydrate, with the reason — operators must be
                        # able to see the damage, not just 503s.
                        "quarantined": dict(service.registry.quarantined),
                    }
                )
            return
        if method == "GET" and path == "/jobs":
            app_id = query.get("app")
            self._send_json({"jobs": [j.to_json() for j in service.scheduler.jobs(app_id)]})
            return
        if method == "POST" and path == "/admin/drain":
            if not service.admin_enabled:
                raise _HTTPError(404, f"no route for {method} {path}")
            # Finish every queued/in-flight job, answer, then flag the
            # supervised worker's main loop to exit.  The response goes
            # out before ``drained`` is set so the caller always hears
            # back from a socket that is still open.
            service.scheduler.drain()
            self._send_json({"status": "drained"})
            service.drained.set()
            return
        match = re.fullmatch(r"/jobs/([^/]+)", path)
        if match and method == "GET":
            self._job(match.group(1))
            return
        match = re.fullmatch(
            r"/apps/([^/]+)(/observe_batch|/observe|/config|/history)?", path
        )
        if match:
            app_id, action = match.group(1), match.group(2)
            if action == "/observe" and method == "POST":
                self._observe(app_id, self._read_body())
            elif action == "/observe_batch" and method == "POST":
                self._observe_batch(app_id, self._read_body())
            elif action == "/config" and method == "GET":
                self._config(app_id)
            elif action == "/history" and method == "GET":
                self._history(app_id, query)
            elif action is None and method == "GET":
                self._send_json(service.registry.get(app_id).status())
            else:
                raise _HTTPError(405, f"{method} not allowed on {path}")
            return
        raise _HTTPError(404, f"no route for {method} {path}")

    def _register(self, body: dict) -> None:
        for key in ("app_id", "benchmark"):
            if key not in body:
                raise _HTTPError(400, f"missing required field {key!r}")
        registry = self.service.registry
        try:
            session = registry.register(
                body["app_id"],
                benchmark=body["benchmark"],
                cluster=body.get("cluster", "x86"),
                seed=body.get("seed", 1),
                tuner=body.get("tuner"),
                controller=body.get("controller"),
                warm_start=body.get("warm_start"),
            )
        except ValueError as exc:
            status = 409 if "already registered" in str(exc) else 400
            raise _HTTPError(status, str(exc)) from None
        self._send_json(session.status(), status=201)

    def _observe(self, app_id: str, body: dict) -> None:
        registry = self.service.registry
        session = registry.get(app_id)  # 404 before queueing anything
        if "datasize_gb" not in body:
            raise _HTTPError(400, "missing required field 'datasize_gb'")
        try:
            datasize_gb = float(body["datasize_gb"])
            duration_s = body.get("duration_s")
            duration_s = None if duration_s is None else float(duration_s)
        except (TypeError, ValueError) as exc:
            # null/array/object JSON values raise TypeError; reject them
            # up front like any other bad input instead of failing a job.
            raise _HTTPError(400, f"datasize_gb/duration_s must be numbers: {exc}") from None
        if _bad_duration(duration_s):
            raise _HTTPError(
                400, f"duration_s must be a finite positive number, got {duration_s!r}"
            )
        job = self.service.scheduler.submit(
            app_id,
            lambda: registry.observe(app_id, datasize_gb, duration_s),
            kind="observe",
            slots=session.planned_slots(datasize_gb),
        )
        if not body.get("wait", True):
            self._send_json({**job.to_json()}, status=202)
            return
        timeout = min(float(body.get("timeout", MAX_WAIT_S)), MAX_WAIT_S)
        try:
            self.service.scheduler.wait(job.job_id, timeout)
        except TimeoutError as exc:
            raise _HTTPError(504, str(exc)) from None
        self._job(job.job_id)

    def _observe_batch(self, app_id: str, body: dict) -> None:
        registry = self.service.registry
        session = registry.get(app_id)  # 404 before queueing anything
        observations = body.get("observations")
        if not isinstance(observations, list) or not observations:
            raise _HTTPError(400, "'observations' must be a non-empty list")
        if len(observations) > MAX_BATCH:
            raise _HTTPError(
                400, f"batch of {len(observations)} exceeds the cap of {MAX_BATCH}"
            )
        parsed: list[tuple[float, float | None]] = []
        for i, item in enumerate(observations):
            if not isinstance(item, dict) or "datasize_gb" not in item:
                raise _HTTPError(
                    400, f"observations[{i}] must be an object with 'datasize_gb'"
                )
            try:
                datasize_gb = float(item["datasize_gb"])
                duration_s = item.get("duration_s")
                duration_s = None if duration_s is None else float(duration_s)
            except (TypeError, ValueError) as exc:
                raise _HTTPError(
                    400,
                    f"observations[{i}] datasize_gb/duration_s must be numbers: {exc}",
                ) from None
            if _bad_duration(duration_s):
                raise _HTTPError(
                    400,
                    f"observations[{i}] duration_s must be a finite positive number, "
                    f"got {duration_s!r}",
                )
            parsed.append((datasize_gb, duration_s))
        job = self.service.scheduler.submit(
            app_id,
            lambda: registry.observe_batch(app_id, parsed),
            kind="observe_batch",
            slots=session.planned_slots(parsed[0][0]),
        )
        if not body.get("wait", True):
            self._send_json({**job.to_json()}, status=202)
            return
        timeout = min(float(body.get("timeout", MAX_WAIT_S)), MAX_WAIT_S)
        try:
            self.service.scheduler.wait(job.job_id, timeout)
        except TimeoutError as exc:
            raise _HTTPError(504, str(exc)) from None
        self._job(job.job_id)

    def _job(self, job_id: str) -> None:
        job = self.service.scheduler.get(job_id)
        payload = job.to_json()
        if job.status == "done" and isinstance(job.result, OnlineDecision):
            payload["decision"] = decision_to_json(job.result)
        elif (
            job.status == "done"
            and isinstance(job.result, list)
            and all(isinstance(d, OnlineDecision) for d in job.result)
        ):
            payload["decisions"] = [decision_to_json(d) for d in job.result]
        self._send_json(payload, status=500 if job.status == "failed" else 200)

    def _config(self, app_id: str) -> None:
        session = self.service.registry.get(app_id)
        if not session.controller.is_deployed:
            raise _HTTPError(404, f"{app_id!r} has no deployed configuration yet")
        config = session.controller.deployed_config
        self._send_json(
            {
                "app_id": app_id,
                "parameters": config_to_dict(config),
                "spark_properties": to_spark_properties(config),
                "spark_defaults_conf": to_spark_defaults_conf(
                    config, header=f"deployed by the LOCAT tuning service for {app_id}"
                ),
            }
        )

    def _history(self, app_id: str, query: dict[str, str]) -> None:
        self.service.registry.get(app_id)  # 404 for unknown apps
        source = query.get("source") or None
        limit = int(query["limit"]) if "limit" in query else None
        if limit is not None and limit < 0:
            raise _HTTPError(400, f"limit must be >= 0, got {limit}")
        records = self.service.store.observations(app_id, source=source)
        if limit is not None:
            records = records[max(len(records) - limit, 0):]  # the newest `limit`
        self._send_json(
            {"app_id": app_id, "count": len(records), "observations": [r.to_json() for r in records]}
        )
