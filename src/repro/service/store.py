"""Persistent tuning-history store.

One directory per registered application:

    <root>/<app_id>/app.json        registration metadata (benchmark,
                                    cluster, tuner/controller settings)
    <root>/<app_id>/runs.jsonl      append-only run table: one JSON line
                                    per (config, datasize, duration,
                                    source) observation
    <root>/<app_id>/artifacts.json  bootstrap artifacts: the QCSA query
                                    split and the CPS parameter selection
    <root>/<app_id>/deployed.json   the controller's deployed state
                                    (config, tuned datasizes, drift
                                    window), rewritten after every job
    <root>/<app_id>/fingerprint.json  the application's static workload
                                    fingerprint, written at registration
                                    (donor ranking for transfer
                                    warm-starts reads it)
    <root>/<app_id>/transfer.json   transfer-warm-start provenance
                                    (donor, similarity, agreement,
                                    outcome), written once after a
                                    transfer bootstrap resolves
    <root>/<app_id>/winners.json    shadow A/B promotion provenance:
                                    one record per promote/reject
                                    decision (both configs, paired
                                    deltas with CIs, decision reason)
    <root>/<app_id>/trace.jsonl     replay trace: one JSON line per
                                    recorded production run (datasize,
                                    environment factors, RNG seed key,
                                    measured duration), only for tenants
                                    with replay evaluation enabled

The run table is the durable substrate everything else rebuilds from —
the CPE/KPCA manifold and the DAGP are deliberately *not* persisted,
because LOCAT refits both from observations anyway (see
:meth:`repro.core.locat.LOCAT.restore`).  Appends are flushed per line
(and fsynced), so a killed service loses at most the observation being
written; a torn trailing line is dropped on replay.  Every JSON
document is written atomically (temp file + rename).  Datasizes are
canonicalized through :func:`repro.core.datasize.normalize_datasize` at
the record boundary, so JSON round trips cannot fork one logical
history into two.  The full field-by-field schema, including units and
provenance of every run-table column, is documented in
``docs/history-store.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.datasize import normalize_datasize
from repro.core.iicp import CPSResult
from repro.core.qcsa import QCSAResult
from repro.replay.trace import TraceStep

#: Sources a run-table record can come from.
SOURCE_TUNING = "tuning"        # an RQA/bootstrap sample collected by LOCAT
SOURCE_PRODUCTION = "production"  # a measured production run of the deployed config
SOURCES = (SOURCE_TUNING, SOURCE_PRODUCTION)

_APP_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


class CorruptRunTableError(ValueError):
    """A run table holds a corrupt durable line (not a torn append).

    A subclass of ``ValueError`` so existing handlers (the donor scan,
    tenant quarantine) keep working, but distinguishable where the
    difference matters — the HTTP layer must report it as a server-side
    data-integrity failure (5xx), never as a malformed request (400).
    """


def validate_app_id(app_id: str) -> str:
    """App ids become directory names; keep them filesystem-safe."""
    if not isinstance(app_id, str) or not _APP_ID_RE.fullmatch(app_id):
        raise ValueError(
            f"bad application id {app_id!r}: use 1-64 letters, digits, '.', '_', '-'"
        )
    return app_id


@dataclass(frozen=True)
class ObservationRecord:
    """One row of an application's run table."""

    config: dict                 # raw parameter values (config_to_dict)
    datasize_gb: float
    duration_s: float            # RQA duration for tuning rows, full-app for production
    source: str                  # SOURCE_TUNING or SOURCE_PRODUCTION
    reduced: bool = True         # True when only the RQA was executed
    timestamp: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.source not in SOURCES:
            raise ValueError(f"bad source {self.source!r}; expected one of {SOURCES}")
        # Canonicalize at the store boundary: a record written as 100 and
        # read back as 100.0 (or sent as a string) must stay one history.
        object.__setattr__(self, "datasize_gb", normalize_datasize(self.datasize_gb))
        object.__setattr__(self, "duration_s", float(self.duration_s))

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "datasize_gb": self.datasize_gb,
            "duration_s": self.duration_s,
            "source": self.source,
            "reduced": self.reduced,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ObservationRecord":
        return cls(
            config=dict(data["config"]),
            datasize_gb=float(data["datasize_gb"]),
            duration_s=float(data["duration_s"]),
            source=data["source"],
            reduced=bool(data.get("reduced", True)),
            timestamp=float(data.get("timestamp", 0.0)),
        )


def _qcsa_to_json(result: QCSAResult) -> dict:
    return {
        "cvs": dict(result.cvs),
        "csq": list(result.csq),
        "ciq": list(result.ciq),
        "threshold": result.threshold,
        "n_samples": result.n_samples,
    }


def _qcsa_from_json(data: dict) -> QCSAResult:
    return QCSAResult(
        cvs={k: float(v) for k, v in data["cvs"].items()},
        csq=tuple(data["csq"]),
        ciq=tuple(data["ciq"]),
        threshold=float(data["threshold"]),
        n_samples=int(data["n_samples"]),
    )


def _cps_to_json(result: CPSResult) -> dict:
    return {
        "scc": dict(result.scc),
        "selected": list(result.selected),
        "threshold": result.threshold,
    }


def _cps_from_json(data: dict) -> CPSResult:
    return CPSResult(
        scc={k: float(v) for k, v in data["scc"].items()},
        selected=tuple(data["selected"]),
        threshold=float(data["threshold"]),
    )


class HistoryStore:
    """Durable, append-only tuning history for many applications.

    All methods are thread-safe.  Each application directory has its own
    lock, so one tenant's fsync never queues another tenant's commit;
    only registration takes the store-wide lock.  Write ordering across
    calls for one application is the caller's job (the scheduler
    serializes jobs within an application).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Guards registration (the app.json existence check and write)
        # and the lock table below.
        self._lock = threading.Lock()
        # One lock per application directory.  It guards the on-disk
        # files, not an attribute: every write under <root>/<app_id>
        # (appends, torn-tail repair, JSON documents) runs under it, so
        # concurrent jobs cannot interleave writes to one tenant.
        self._app_locks: dict[str, threading.Lock] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def app_dir(self, app_id: str) -> Path:
        return self.root / validate_app_id(app_id)

    def _app_lock(self, app_id: str) -> threading.Lock:
        """The lock serializing writes to one application's directory."""
        with self._lock:
            return self._app_locks.setdefault(validate_app_id(app_id), threading.Lock())

    def list_apps(self) -> list[str]:
        """Registered application ids, sorted."""
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and (p / "app.json").exists()
        )

    def has_app(self, app_id: str) -> bool:
        return (self.app_dir(app_id) / "app.json").exists()

    def register_app(self, app_id: str, meta: dict) -> None:
        """Persist registration metadata; refuses to overwrite."""
        directory = self.app_dir(app_id)
        with self._lock:
            if (directory / "app.json").exists():
                raise ValueError(f"application {app_id!r} is already registered")
            directory.mkdir(parents=True, exist_ok=True)
            self._write_json(directory / "app.json", {"app_id": app_id, **meta})

    def app_meta(self, app_id: str) -> dict:
        path = self.app_dir(app_id) / "app.json"
        if not path.exists():
            raise KeyError(f"unknown application {app_id!r}")
        return json.loads(path.read_text())

    # ------------------------------------------------------------------
    # Run table
    # ------------------------------------------------------------------
    def append(self, app_id: str, record: ObservationRecord) -> None:
        self.append_many(app_id, [record])

    def append_many(self, app_id: str, records: list[ObservationRecord]) -> None:
        """Append records to the run table, one flushed JSON line each.

        Records carrying the 0.0 default timestamp are stamped with the
        append time, so run tables stay orderable across restarts even
        when the caller never set one.
        """
        if not records:
            return
        now = time.time()
        records = [
            # Sentinel round-trip: 0.0 is the dataclass default, never a
            # measured value, and arrives unmodified by any arithmetic.
            dataclasses.replace(r, timestamp=now) if r.timestamp == 0.0 else r  # repro: allow[float-eq]
            for r in records
        ]
        path = self.app_dir(app_id) / "runs.jsonl"
        with self._app_lock(app_id):
            # A crash mid-append can leave the file ending in a torn
            # partial line.  Appending after it would concatenate the
            # first new record onto the torn bytes — silently losing it
            # and turning the crash artifact into *interior* corruption
            # that poisons every later replay.  The torn tail was never
            # durable (replay drops it), so trim it before writing.
            self._truncate_torn_tail(path)
            with open(path, "a") as handle:
                for record in records:
                    handle.write(json.dumps(record.to_json()) + "\n")
                handle.flush()
                os.fsync(handle.fileno())

    @staticmethod
    def _truncate_torn_tail(path: Path) -> None:
        """Drop trailing bytes after the last newline (a torn append)."""
        if not path.exists() or path.stat().st_size == 0:
            return
        with open(path, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.seek(size - 1)
            if handle.read(1) == b"\n":
                return
            # Scan backwards in chunks for the last complete line.
            position, last_newline, chunk = size, -1, 4096
            while position > 0 and last_newline < 0:
                start = max(0, position - chunk)
                handle.seek(start)
                data = handle.read(position - start)
                index = data.rfind(b"\n")
                if index >= 0:
                    last_newline = start + index
                position = start
            handle.truncate(last_newline + 1 if last_newline >= 0 else 0)

    def observations(self, app_id: str, source: str | None = None) -> list[ObservationRecord]:
        """The run table in append order, optionally filtered by source.

        The trailing newline is the durability boundary: a final line
        without one is a torn append (service killed mid-write) and is
        dropped rather than poisoning the replay — even when its JSON
        happens to parse, since the next append truncates it anyway.  A
        corrupt *newline-terminated* line is a different animal — a
        torn append under the current writer can only lose a suffix of
        the write, so it cannot manufacture a complete-but-invalid
        line; that is disk damage, an external writer, or a pre-repair
        crash artifact (older releases appended straight after a torn
        tail, welding two records into one line), and silently skipping
        it would hand the tuner a fraction of its history.  That raises
        instead; on service start such a tenant is quarantined rather
        than blocking the others.
        """
        path = self.app_dir(app_id) / "runs.jsonl"
        if not path.exists():
            return []
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:
            # Disk damage can hit arbitrary bytes; a run table that no
            # longer decodes is the same animal as an unparsable line
            # and must surface as data corruption, not a stray
            # UnicodeDecodeError from deep inside the replay.
            raise CorruptRunTableError(
                f"corrupt run table for application {app_id!r}: {path} "
                f"is not valid UTF-8 ({exc}); restore the file from "
                f"backup or delete the damaged bytes explicitly"
            ) from exc
        lines = text.splitlines()
        if lines and not text.endswith("\n"):
            lines = lines[:-1]  # torn tail: never durable
        records: list[ObservationRecord] = []
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(ObservationRecord.from_json(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise CorruptRunTableError(
                    f"corrupt run table for application {app_id!r}: "
                    f"line {i + 1} of {path} is not a valid observation "
                    f"record ({exc}); only a torn trailing line (no "
                    f"newline) is tolerated.  This is disk damage, an "
                    f"external writer, or a crash artifact from an "
                    f"older release that appended onto a torn tail — "
                    f"restore the file from backup or delete the "
                    f"damaged line explicitly"
                ) from exc
        if source is not None:
            records = [r for r in records if r.source == source]
        return records

    # ------------------------------------------------------------------
    # Replay trace (trace.jsonl, same durability contract as runs.jsonl)
    # ------------------------------------------------------------------
    def append_trace(self, app_id: str, steps: list[TraceStep]) -> None:
        """Append replay-trace steps, one flushed JSON line each.

        Same crash semantics as :meth:`append_many`: the torn tail is
        trimmed before appending, each batch is fsynced, and a killed
        service loses at most the step being written.
        """
        if not steps:
            return
        path = self.app_dir(app_id) / "trace.jsonl"
        with self._app_lock(app_id):
            self._truncate_torn_tail(path)
            with open(path, "a") as handle:
                for step in steps:
                    handle.write(json.dumps(step.to_json()) + "\n")
                handle.flush()
                os.fsync(handle.fileno())

    def load_trace(self, app_id: str) -> list[TraceStep]:
        """The persisted replay trace in append order.

        A torn trailing line (no newline) is dropped — it was never
        durable.  A corrupt *newline-terminated* line raises
        ``ValueError``: unlike the run table, a damaged trace never
        quarantines the tenant (the registry logs and restarts with an
        empty trace — a trace is an optimization cache the next
        production runs rebuild, not the tenant's knowledge).
        """
        path = self.app_dir(app_id) / "trace.jsonl"
        if not path.exists():
            return []
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"corrupt replay trace for application {app_id!r}: "
                f"{path} is not valid UTF-8 ({exc})"
            ) from exc
        lines = text.splitlines()
        if lines and not text.endswith("\n"):
            lines = lines[:-1]  # torn tail: never durable
        steps: list[TraceStep] = []
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                steps.append(TraceStep.from_json(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"corrupt replay trace for application {app_id!r}: "
                    f"line {i + 1} of {path} is not a valid trace step "
                    f"({exc})"
                ) from exc
        return steps

    # ------------------------------------------------------------------
    # Bootstrap artifacts and deployed state
    # ------------------------------------------------------------------
    def has_artifacts(self, app_id: str) -> bool:
        return (self.app_dir(app_id) / "artifacts.json").exists()

    def save_artifacts(self, app_id: str, qcsa: QCSAResult | None, cps: CPSResult) -> None:
        payload = {
            "qcsa": _qcsa_to_json(qcsa) if qcsa is not None else None,
            "cps": _cps_to_json(cps),
            "saved_at": time.time(),
        }
        with self._app_lock(app_id):
            self._write_json(self.app_dir(app_id) / "artifacts.json", payload)

    def load_artifacts(self, app_id: str) -> tuple[QCSAResult | None, CPSResult | None]:
        path = self.app_dir(app_id) / "artifacts.json"
        if not path.exists():
            return None, None
        data = json.loads(path.read_text())
        qcsa = _qcsa_from_json(data["qcsa"]) if data.get("qcsa") else None
        cps = _cps_from_json(data["cps"]) if data.get("cps") else None
        return qcsa, cps

    def save_fingerprint(self, app_id: str, fingerprint: dict) -> None:
        """Persist an application's workload-fingerprint JSON."""
        with self._app_lock(app_id):
            self._write_json(self.app_dir(app_id) / "fingerprint.json", fingerprint)

    def load_fingerprint(self, app_id: str) -> dict | None:
        """The persisted fingerprint, or None for pre-fingerprint apps."""
        path = self.app_dir(app_id) / "fingerprint.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def save_transfer(self, app_id: str, provenance: dict) -> None:
        """Persist a tenant's transfer-warm-start provenance.

        Written once, after a transfer bootstrap resolves, so a
        restarted service still knows which donor seeded the tenant and
        whether the transplant was accepted.
        """
        with self._app_lock(app_id):
            self._write_json(self.app_dir(app_id) / "transfer.json", provenance)

    def load_transfer(self, app_id: str) -> dict | None:
        """The persisted transfer provenance, or None (cold tenants)."""
        path = self.app_dir(app_id) / "transfer.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def save_deployment(self, app_id: str, state: dict) -> None:
        with self._app_lock(app_id):
            self._write_json(self.app_dir(app_id) / "deployed.json", state)

    def load_deployment(self, app_id: str) -> dict | None:
        path = self.app_dir(app_id) / "deployed.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # ------------------------------------------------------------------
    # Promotion provenance (winners.json, next to deployed.json)
    # ------------------------------------------------------------------
    def append_winners(self, app_id: str, records: list[dict]) -> None:
        """Append promote/reject provenance records to ``winners.json``.

        Each record is stamped with ``decided_at`` unless the caller
        already set one; the whole document is rewritten atomically, so
        a crash leaves either the old or the new history, never a torn
        one.  Decisions are rare (one per retune at most), so the
        read-modify-write stays cheap.
        """
        if not records:
            return
        now = time.time()
        path = self.app_dir(app_id) / "winners.json"
        with self._app_lock(app_id):
            payload = (
                json.loads(path.read_text()) if path.exists() else {"winners": []}
            )
            for record in records:
                stamped = dict(record)
                stamped.setdefault("decided_at", now)
                payload["winners"].append(stamped)
            self._write_json(path, payload)

    def load_winners(self, app_id: str) -> list[dict]:
        """All promotion decisions in append order (empty pre-shadow)."""
        path = self.app_dir(app_id) / "winners.json"
        if not path.exists():
            return []
        return list(json.loads(path.read_text()).get("winners", []))

    # ------------------------------------------------------------------
    @staticmethod
    def _write_json(path: Path, payload: dict) -> None:
        """Atomic-ish write: temp file in the same directory, then rename."""
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
