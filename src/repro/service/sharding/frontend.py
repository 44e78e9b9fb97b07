"""The sharded service front end.

:class:`ShardedTuningService` presents the exact HTTP API of
:class:`~repro.service.server.TuningService` while fanning the work out
across N worker processes.  Routing is by application id: the handler
extracts the id from the path (or, for registration, from the JSON
body), asks the :class:`~repro.service.sharding.shard.ShardMap` which
shard owns it, and proxies the raw request bytes to that worker over a
persistent per-thread local connection.  Cross-tenant reads —
``GET /apps``, ``GET /jobs`` — fan out to every worker and merge.

Worker crashes are absorbed at the proxy boundary: a failed forward
asks the supervisor to ensure the shard (restarting the process, which
rehydrates tenant state from the shard's store) and retries once before
answering 502.

With ``workers=1`` every route is a verbatim passthrough to the single
worker — no job-id prefixes, no merge rewriting — so responses are
byte-identical to the unsharded single-process service.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.service.server import MAX_WAIT_S
from repro.service.sharding.shard import ShardMap, check_store_layout
from repro.service.sharding.worker import (
    DRAIN_TIMEOUT_S,
    START_TIMEOUT_S,
    WorkerSpec,
    WorkerSupervisor,
)

#: Proxy socket timeout: a worker may legitimately hold a ``wait=true``
#: observe for up to ``MAX_WAIT_S``; pad it so the worker's own 504
#: beats the proxy timeout.
PROXY_TIMEOUT_S = MAX_WAIT_S + 30.0

#: Response headers copied from worker to client verbatim.
_FORWARDED_HEADERS = ("Content-Type", "Retry-After")

_JOB_PREFIX_RE = re.compile(r"w(\d+)-")


def _submitted_at(job: dict) -> float:
    """Fan-out merge sort key: jobs a worker never stamped sort first."""
    timestamp = job.get("submitted_at")
    return float(timestamp) if timestamp is not None else 0.0


class ShardedTuningService:
    """N worker processes behind one routing front end."""

    def __init__(
        self,
        store_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        tuning_threads: int = 4,
        default_warm_start: str = "cold",
        replay_eval: str = "off",
        max_pending: int | None = None,
        log_requests: bool = False,
        service_factory=None,
        worker_start_timeout: float = START_TIMEOUT_S,
    ):
        """``workers`` is the shard/process count; ``tuning_threads`` is
        each worker's internal scheduler thread pool (the old
        single-process ``n_workers``).  ``service_factory``, when given,
        builds each worker's service from its
        :class:`~repro.service.sharding.worker.WorkerSpec` — the hook
        benchmarks use to emulate slow durable storage."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store_dir = str(store_dir)
        self.shard_map = ShardMap(workers)
        check_store_layout(self.store_dir, self.shard_map)
        specs = []
        for shard in range(workers):
            shard_dir = self.shard_map.shard_dir(self.store_dir, shard)
            Path(shard_dir).mkdir(parents=True, exist_ok=True)
            specs.append(
                WorkerSpec(
                    shard=shard,
                    store_dir=str(shard_dir),
                    tuning_threads=tuning_threads,
                    default_warm_start=default_warm_start,
                    replay_eval=replay_eval,
                    max_pending=max_pending,
                    log_requests=log_requests,
                    # Single-worker mode keeps legacy job ids so the
                    # sharded stack is byte-identical to the plain one.
                    job_id_prefix=f"w{shard}-" if workers > 1 else "",
                    service_factory=service_factory,
                )
            )
        self.supervisor = WorkerSupervisor(specs, start_timeout=worker_start_timeout)
        self.log_requests = bool(log_requests)
        self._local = threading.local()
        self._closed = False
        self._httpd = ThreadingHTTPServer((host, port), _FrontendHandler)
        self._httpd.daemon_threads = True
        self._httpd.frontend = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self.shard_map.n_workers

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

    def start(self) -> "ShardedTuningService":
        """Serve on a background thread (tests, examples, benchmarks)."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="tuning-frontend", daemon=True
        )
        self._thread.start()
        return self

    def close(self, drain_timeout: float = DRAIN_TIMEOUT_S) -> None:
        """Stop accepting requests, then drain every worker. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.supervisor.drain_all(timeout=drain_timeout)

    def __enter__(self) -> "ShardedTuningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _connection(self, shard: int, port: int) -> http.client.HTTPConnection:
        """This thread's keep-alive connection to a worker.

        Keyed by (shard, port): a restarted worker binds a fresh
        ephemeral port, which naturally invalidates stale pool entries.
        """
        pool = getattr(self._local, "pool", None)
        if pool is None:
            pool = self._local.pool = {}
        conn = pool.get((shard, port))
        if conn is None:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=PROXY_TIMEOUT_S)
            pool[(shard, port)] = conn
        return conn

    def _drop_connection(self, shard: int, port: int) -> None:
        pool = getattr(self._local, "pool", None)
        conn = pool.pop((shard, port), None) if pool else None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def forward(
        self, shard: int, method: str, path: str, body: bytes | None, content_type: str | None
    ) -> tuple[int, dict[str, str], bytes]:
        """Proxy one request to a shard; restart-and-retry on failure."""
        last_error: Exception | None = None
        for attempt in (0, 1):
            try:
                handle = self.supervisor.ensure(shard)
            except (RuntimeError, TimeoutError) as exc:
                last_error = exc
                break
            port = handle.port
            assert port is not None
            headers = {}
            if body is not None:
                headers["Content-Type"] = content_type or "application/json"
            conn = self._connection(shard, port)
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
            except OSError as exc:
                # Stale keep-alive socket or a crashed worker; drop the
                # connection and loop — ensure() restarts a dead shard.
                self._drop_connection(shard, port)
                last_error = exc
                continue
            out = {}
            for name in _FORWARDED_HEADERS:
                value = response.getheader(name)
                if value is not None:
                    out[name] = value
            return response.status, out, raw
        message = f"worker for shard {shard} is unavailable: {last_error}"
        payload = json.dumps({"error": message}).encode()
        return 502, {"Content-Type": "application/json"}, payload


class _FrontendHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY, as on the worker's handler: without it the body write
    # of every reply waits for the client's delayed ACK of the headers.
    disable_nagle_algorithm = True
    server: ThreadingHTTPServer  # with .frontend attached

    # ------------------------------------------------------------------
    @property
    def frontend(self) -> ShardedTuningService:
        return self.server.frontend  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.frontend.log_requests:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _reply(self, status: int, headers: dict[str, str], body: bytes) -> None:
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self._reply(status, {"Content-Type": "application/json"}, body)

    def _proxy(self, shard: int, body: bytes | None = None) -> None:
        status, headers, raw = self.frontend.forward(
            shard, self.command, self.path, body, self.headers.get("Content-Type")
        )
        self._reply(status, headers, raw)

    def _read_body(self) -> bytes:
        # A missing Content-Length really does mean "no body" here.
        length = int(self.headers.get("Content-Length") or 0)  # repro: allow[falsy-zero]
        return self.rfile.read(length) if length else b""

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._route(None)

    def do_POST(self) -> None:  # noqa: N802
        self._route(self._read_body())

    def _route(self, body: bytes | None) -> None:
        frontend = self.frontend
        path, _, query_string = self.path.partition("?")
        path = path.rstrip("/") or "/"
        method = self.command

        if method == "GET" and path == "/workers":
            # Frontend-only supervision view; deliberately NOT part of
            # the worker API so /healthz keeps its unsharded shape.
            self._reply_json(
                {
                    "workers": frontend.supervisor.status(),
                    "restarts": frontend.supervisor.restarts,
                }
            )
            return

        if frontend.workers == 1:
            # Pure passthrough: byte-identical to the unsharded service.
            self._proxy(0, body)
            return

        match = re.match(r"^/apps/([^/]+)", path)
        if match:
            self._proxy(frontend.shard_map.shard_of(match.group(1)), body)
            return
        if path == "/apps":
            if method == "POST":
                self._register(body if body is not None else b"")
            else:
                self._merge_apps()
            return
        match = re.fullmatch(r"/jobs/([^/]+)", path)
        if match and method == "GET":
            self._proxy(self._job_shard(match.group(1)), body)
            return
        if method == "GET" and path == "/jobs":
            query = dict(
                part.partition("=")[::2] for part in query_string.split("&") if "=" in part
            )
            app_id = query.get("app")
            if app_id:
                self._proxy(frontend.shard_map.shard_of(app_id), body)
            else:
                self._merge_jobs()
            return
        if method == "GET" and path == "/healthz":
            self._merge_health()
            return
        # Anything else (including unknown routes) goes to shard 0 so
        # error payloads match the single-process service's wording.
        self._proxy(0, body)

    # ------------------------------------------------------------------
    def _job_shard(self, job_id: str) -> int:
        match = _JOB_PREFIX_RE.match(job_id)
        if match:
            shard = int(match.group(1))
            if shard < self.frontend.workers:
                return shard
        return 0

    def _register(self, body: bytes) -> None:
        try:
            payload = json.loads(body) if body else {}
            app_id = payload.get("app_id") if isinstance(payload, dict) else None
        except json.JSONDecodeError:
            app_id = None
        if not isinstance(app_id, str) or not app_id:
            # Malformed registration: let a worker produce the exact
            # error message the unsharded service would.
            self._proxy(0, body)
            return
        self._proxy(self.frontend.shard_map.shard_of(app_id), body)

    def _fan_out(self) -> list[tuple[int, int, dict[str, str], bytes]]:
        results = []
        for shard in range(self.frontend.workers):
            status, headers, raw = self.frontend.forward(
                shard, "GET", self.path, None, None
            )
            results.append((shard, status, headers, raw))
        return results

    def _merge_apps(self) -> None:
        apps: list[dict] = []
        quarantined: dict[str, str] = {}
        for shard, status, _, raw in self._fan_out():
            if status != 200:
                self._reply_json(
                    {"error": f"shard {shard} answered {status} during fan-out"},
                    status=502,
                )
                return
            payload = json.loads(raw)
            apps.extend(payload.get("apps", []))
            quarantined.update(payload.get("quarantined", {}))
        apps.sort(key=lambda status: status.get("app_id", ""))
        self._reply_json({"apps": apps, "quarantined": quarantined})

    def _merge_jobs(self) -> None:
        jobs: list[dict] = []
        for shard, status, _, raw in self._fan_out():
            if status != 200:
                self._reply_json(
                    {"error": f"shard {shard} answered {status} during fan-out"},
                    status=502,
                )
                return
            jobs.extend(json.loads(raw).get("jobs", []))
        jobs.sort(key=lambda job: (_submitted_at(job), job.get("job_id", "")))
        self._reply_json({"jobs": jobs})

    def _merge_health(self) -> None:
        total = 0
        for shard, status, _, raw in self._fan_out():
            if status != 200:
                self._reply_json(
                    {"status": "degraded", "failed_shard": shard}, status=503
                )
                return
            total += json.loads(raw).get("apps", 0)
        self._reply_json({"status": "ok", "apps": total})
