"""Thin Python client for the tuning service HTTP API.

Stdlib-only (``http.client``), mirroring the server's routes one method
each.  Sync by default: :meth:`observe` blocks until the service has
processed the run and returns the decision dict; pass ``wait=False`` to
get a job id back immediately and poll with :meth:`job` /
:meth:`wait_job`.

Connections are kept alive: each thread using the client holds one
persistent :class:`http.client.HTTPConnection` (the server speaks
HTTP/1.1), so steady-state requests skip the TCP handshake entirely.  A
stale socket — the server restarted, or an idle keep-alive connection
was reaped — surfaces as a connection-level error on the next request;
the client transparently reconnects and retries that request once.
Retrying is safe here because a request that died on a stale socket was
never processed.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse

#: Connection-level failures that mean "the socket went stale", not
#: "the server answered with an error" — safe to reconnect and retry.
_RETRYABLE = (
    http.client.RemoteDisconnected,
    http.client.CannotSendRequest,
    BrokenPipeError,
    ConnectionResetError,
    ConnectionAbortedError,
)


class ServiceError(RuntimeError):
    """An HTTP error response from the tuning service."""

    def __init__(self, status: int, message: str, retry_after: float | None = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: Parsed ``Retry-After`` header on 429 backpressure responses
        #: (seconds), ``None`` otherwise.
        self.retry_after = retry_after


class TuningClient:
    """Talks to one :class:`~repro.service.server.TuningService`."""

    def __init__(self, base_url: str, timeout: float = 630.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"only http:// URLs are supported, got {base_url!r}")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        # One persistent connection per thread: http.client connections
        # are not thread-safe, and tests drive one client from many
        # threads at once.
        self._local = threading.local()
        self._conns_lock = threading.Lock()
        self._conns: list[http.client.HTTPConnection] = []  # guarded-by: _conns_lock

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.conn = conn
            with self._conns_lock:
                self._conns.append(conn)
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            self._local.conn = None
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def close(self) -> None:
        """Close every keep-alive connection this client opened."""
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        self._local = threading.local()

    def __enter__(self) -> "TuningClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=data, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except _RETRYABLE:
                # Stale keep-alive socket: the request never reached the
                # application layer, so reconnecting and resending once
                # is safe.  A second failure means the server is down.
                self._drop_connection()
                if attempt == 1:
                    raise
        if response.status >= 400:
            try:
                message = json.loads(raw).get("error", response.reason)
            except (json.JSONDecodeError, AttributeError):
                message = str(response.reason)
            retry_after = None
            header = response.getheader("Retry-After")
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    pass
            raise ServiceError(response.status, message, retry_after=retry_after)
        return json.loads(raw)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def register_app(
        self,
        app_id: str,
        benchmark: str,
        cluster: str = "x86",
        seed: int = 1,
        tuner: dict | None = None,
        warm_start: str | None = None,
    ) -> dict:
        """Register a tenant; ``warm_start="transfer"`` asks the service
        to seed the first bootstrap from the most similar existing
        tenant's history (falls back to a cold start without one)."""
        body = {
            "app_id": app_id,
            "benchmark": benchmark,
            "cluster": cluster,
            "seed": seed,
        }
        if tuner:
            body["tuner"] = tuner
        if warm_start is not None:
            body["warm_start"] = warm_start
        return self._request("POST", "/apps", body)

    def list_apps(self) -> list[dict]:
        return self._request("GET", "/apps")["apps"]

    def app(self, app_id: str) -> dict:
        return self._request("GET", f"/apps/{app_id}")

    def observe(
        self,
        app_id: str,
        datasize_gb: float,
        duration_s: float | None = None,
        wait: bool = True,
        timeout: float | None = None,
    ) -> dict:
        """Report one production run.

        With ``wait=True`` (default) returns the finished job including
        its ``decision``; with ``wait=False`` returns the queued job.
        """
        body: dict = {"datasize_gb": datasize_gb, "wait": wait}
        if duration_s is not None:
            body["duration_s"] = duration_s
        if timeout is not None:
            body["timeout"] = timeout
        return self._request("POST", f"/apps/{app_id}/observe", body)

    def observe_batch(
        self,
        app_id: str,
        observations: list[dict],
        wait: bool = True,
        timeout: float | None = None,
    ) -> dict:
        """Report several production runs in one request.

        Each observation is ``{"datasize_gb": ..., "duration_s"?: ...}``.
        The service lands the whole batch through one store lock
        acquisition and one fsync; with ``wait=True`` the finished job
        carries a ``decisions`` list, one entry per observation in
        order.
        """
        body: dict = {"observations": observations, "wait": wait}
        if timeout is not None:
            body["timeout"] = timeout
        return self._request("POST", f"/apps/{app_id}/observe_batch", body)

    def config(self, app_id: str) -> dict:
        return self._request("GET", f"/apps/{app_id}/config")

    def history(self, app_id: str, source: str | None = None, limit: int | None = None) -> dict:
        query = []
        if source:
            query.append(f"source={source}")
        if limit is not None:
            query.append(f"limit={limit}")
        suffix = "?" + "&".join(query) if query else ""
        return self._request("GET", f"/apps/{app_id}/history{suffix}")

    def jobs(self, app_id: str | None = None) -> list[dict]:
        suffix = f"?app={app_id}" if app_id else ""
        return self._request("GET", f"/jobs{suffix}")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def wait_job(self, job_id: str, timeout: float = 600.0, poll_s: float = 0.1) -> dict:
        """Poll a job until it finishes; raises on timeout or failure.

        A failed job comes back from the server as HTTP 500, so failure
        surfaces as :class:`ServiceError` from :meth:`job` itself.
        """
        deadline = time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            if payload["status"] == "done":
                return payload
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {payload['status']} after {timeout}s")
            time.sleep(poll_s)
